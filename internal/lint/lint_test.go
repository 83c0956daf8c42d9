package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness: fixture sources under testdata/src carry
//
//	// want `regex`
//
// comments; each expects one diagnostic on the comment's line whose
// "[pass] message" rendering matches the regex. A suffix offset
// (want-1, want+2) shifts the expected line relative to the comment —
// used where the diagnostic lands on a directive line that cannot hold
// a second comment. Every diagnostic must be expected and every
// expectation must fire.

var (
	wantRe  = regexp.MustCompile("want([+-][0-9]+)?((?:\\s+`[^`]*`)+)")
	backqRe = regexp.MustCompile("`[^`]*`")
)

type wantExpect struct {
	file string // base name
	line int
	re   *regexp.Regexp
	used bool
}

func parseWants(t *testing.T, dir string) []*wantExpect {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantExpect
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				offset := 0
				if m[1] != "" {
					sign := 1
					if m[1][0] == '-' {
						sign = -1
					}
					for _, c := range m[1][1:] {
						offset = offset*10 + int(c-'0')
					}
					offset *= sign
				}
				for _, q := range backqRe.FindAllString(m[2], -1) {
					re, err := regexp.Compile(q[1 : len(q)-1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %s: %v", e.Name(), i+1, q, err)
					}
					wants = append(wants, &wantExpect{file: e.Name(), line: i + 1 + offset, re: re})
				}
			}
		}
	}
	return wants
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestGoldenFixtures(t *testing.T) {
	root := moduleRoot(t)
	for _, fixture := range []string{"determ", "mpifix", "nolintfix", "sdcfix", "growfix", "chaosfix"} {
		t.Run(fixture, func(t *testing.T) {
			rel := "internal/lint/testdata/src/" + fixture
			diags, err := Analyze(root, []string{"./" + rel})
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, filepath.Join(root, filepath.FromSlash(rel)))
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want expectations", fixture)
			}
			for _, d := range diags {
				rendered := "[" + d.Pass + "] " + d.Message
				matched := false
				for _, w := range wants {
					if !w.used && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(rendered) {
						w.used = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.used {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestEachPassFires asserts the acceptance floor directly: every pass
// produces at least two diagnostics across the fixture set, so the
// fixtures keep proving each pass can fire.
func TestEachPassFires(t *testing.T) {
	diags, err := Analyze(moduleRoot(t), []string{"./internal/lint/testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Pass]++
	}
	for _, pass := range Passes() {
		if counts[pass.Name] < 2 {
			t.Errorf("pass %s fired %d time(s) across fixtures, want >= 2", pass.Name, counts[pass.Name])
		}
	}
	if counts["nolint"] < 2 {
		t.Errorf("nolint policing fired %d time(s), want >= 2", counts["nolint"])
	}
}

// TestRepoIsClean is the self-check the CI gate relies on: the
// analyzer over the real tree (testdata excluded by the loader) must
// report nothing.
func TestRepoIsClean(t *testing.T) {
	diags, err := Analyze(moduleRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
