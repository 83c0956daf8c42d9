package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"scaffe/internal/coll"
	"scaffe/internal/core"
)

// ParseSpec reads a chaos spec from key = value lines — the format of
// configs/chaos_demo.txt and scaffe-train's -chaos flag. Blank lines
// and #-comments are skipped; unknown keys are errors so a typo cannot
// silently weaken a drill.
//
//	seed = 42          # schedule seed (required)
//	ranks = 8          # world size, at least 2
//	iters = 8          # training iterations
//	events = 6         # weighted event draws
//	mode = timing      # timing | real
//	design = scb       # as scaffe-train -design; a fault schedule
//	                   # runs on scb | scob | scobr | cntk
//	reduce = binomial  # as scaffe-train -reduce
//	weight.drop = 2    # per-family mix weight (crash, hang, straggle,
//	                   # drop, dup, reorder, delay, partition)
func ParseSpec(text string) (Spec, error) {
	var s Spec
	seenSeed := false
	weightsSet := false
	w := DefaultWeights()
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: spec line %d: want key = value, got %q", ln+1, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		bad := func(err error) (Spec, error) {
			return Spec{}, fmt.Errorf("chaos: spec line %d: %s: %w", ln+1, key, err)
		}
		switch {
		case key == "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return bad(err)
			}
			s.Seed, seenSeed = n, true
		case key == "ranks" || key == "iters" || key == "events":
			n, err := strconv.Atoi(val)
			if err != nil {
				return bad(err)
			}
			if n <= 0 {
				return bad(fmt.Errorf("must be positive, got %d", n))
			}
			if key == "ranks" && n < 2 {
				return bad(fmt.Errorf("must be at least 2, got %d: a chaos spec needs a peer and a link", n))
			}
			switch key {
			case "ranks":
				s.Ranks = n
			case "iters":
				s.Iterations = n
			case "events":
				s.Events = n
			}
		case key == "mode":
			switch val {
			case "timing":
				s.Real = false
			case "real":
				s.Real = true
			default:
				return bad(fmt.Errorf("want timing or real, got %q", val))
			}
		case key == "design":
			d, err := core.ParseDesign(val)
			if err != nil {
				return bad(err)
			}
			s.Design = d
		case key == "reduce":
			a, err := coll.ParseAlgorithm(val)
			if err != nil {
				return bad(err)
			}
			s.Reduce = a
		case strings.HasPrefix(key, "weight."):
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return bad(err)
			}
			if f < 0 {
				return bad(fmt.Errorf("must be non-negative, got %v", f))
			}
			weightsSet = true
			switch strings.TrimPrefix(key, "weight.") {
			case "crash":
				w.Crash = f
			case "hang":
				w.Hang = f
			case "straggle":
				w.Straggle = f
			case "drop":
				w.Drop = f
			case "dup":
				w.Dup = f
			case "reorder":
				w.Reorder = f
			case "delay":
				w.Delay = f
			case "partition":
				w.Partition = f
			default:
				return bad(fmt.Errorf("unknown weight family"))
			}
		default:
			return Spec{}, fmt.Errorf("chaos: spec line %d: unknown key %q", ln+1, key)
		}
	}
	if !seenSeed {
		return Spec{}, fmt.Errorf("chaos: spec must set seed")
	}
	if weightsSet {
		if w.total() == 0 {
			return Spec{}, fmt.Errorf("chaos: every weight is zero")
		}
		s.Weights = w
	}
	return s, nil
}
