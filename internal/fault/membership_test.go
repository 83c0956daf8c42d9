package fault

import (
	"fmt"
	"strings"
	"testing"
)

// membershipTable is the transition table as DESIGN.md §9 prints it,
// one row per state and one column per event. States: M member,
// A arrived, F finished, D departed, X failed, E excluded, J joining,
// N announced, L admitting (locked in); a suffix e marks an evicted
// rank, r a failed rank with a deferred rejoin. A cell is the state the
// event moves the rank to, "=" for no change, and "-" for a pair the
// protocol never produces, which must panic.
const membershipTable = `
     arrive finish leave kill evict release join recover announce withdraw lock abandon
M    A      F      =     X    Xe    -       =    =       -        -        =    -
A    -      -      =     X    Xe    M       =    =       -        -        =    -
F    -      -      D     X    Xe    M       =    =       -        -        =    -
D    -      -      =     X    Xe    =       =    =       -        -        =    -
X    -      =      =     -    -     E       Xr   =       -        -        =    -
Xe   -      =      =     -    -     Ee      Xer  Xer     -        -        =    -
Xr   -      =      =     -    -     J       =    =       -        -        =    -
Xer  -      =      =     -    -     Je      =    =       -        -        =    -
E    -      =      =     -    -     =       J    =       -        -        =    -
Ee   -      =      =     -    -     =       Je   Je      -        -        =    -
J    -      =      =     -    -     =       =    =       N        -        =    -
Je   -      =      =     -    -     =       =    =       Ne       -        =    -
N    -      =      =     -    -     M       =    =       =        J        L    E
Ne   -      =      =     -    -     M       =    =       =        Je       Le   Ee
L    -      =      =     -    -     M       =    =       =        =        =    E
Le   -      =      =     -    -     M       =    =       =        =        =    Ee
`

// parseState reads one state of the table's notation.
func parseState(t *testing.T, tok string) memberState {
	t.Helper()
	letters := "MAFDXEJNL"
	ph := strings.IndexByte(letters, tok[0])
	if ph < 0 {
		t.Fatalf("bad state %q", tok)
	}
	s := memberState{phase: phase(ph)}
	for _, c := range tok[1:] {
		switch c {
		case 'e':
			s.evicted = true
		case 'r':
			s.rejoin = true
		default:
			t.Fatalf("bad state %q", tok)
		}
	}
	return s
}

// TestMembershipTable runs every (state, event) pair of the table
// through the transition function: a legal pair lands in the stated
// state, an illegal one panics. Every state a rank can be in has a row,
// and every event a column.
func TestMembershipTable(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(membershipTable), "\n")
	header := strings.Fields(lines[0])
	if len(header) != int(numEvents) {
		t.Fatalf("%d event columns, want %d", len(header), numEvents)
	}
	for i, name := range header {
		if event(i).String() != name {
			t.Fatalf("column %d is %q, event %d is %v", i, name, i, event(i))
		}
	}
	rows := 0
	for _, line := range lines[1:] {
		cells := strings.Fields(line)
		from := parseState(t, cells[0])
		for i, cell := range cells[1:] {
			e := event(i)
			got, panicked := func() (s memberState, panicked bool) {
				defer func() { panicked = recover() != nil }()
				return from.on(e), false
			}()
			switch cell {
			case "-":
				if !panicked {
					t.Errorf("%v on %v = %v, want a panic", e, from, got)
				}
				continue
			case "=":
				cell = cells[0]
			}
			if want := parseState(t, cell); panicked || got != want {
				t.Errorf("%v on %v = %v (panicked %v), want %v", e, from, got, panicked, want)
			}
		}
		rows++
	}
	// 4 live phases, failed with either flag, and the five shrunk-out
	// phases with or without the eviction mark.
	if want := 4 + 4 + 4*2; rows != want {
		t.Errorf("%d state rows, want %d", rows, want)
	}
}

// FuzzMembership drives random event sequences through the table the
// way the plane does — point events as they come, and after each one
// the settling the plane runs (finished ranks leave when the run is
// done with them, the open round releases once every member arrived) —
// and checks the invariants after every step: the phase counts match
// the states, no rank a round counts is dead, the round's count is its
// arrived members plus its finished ranks, flags only sit on the states
// that carry them, and a round admits only ranks that were shrunk out
// since they last trained.
func FuzzMembership(f *testing.F) {
	seeds := [][]byte{
		{3},
		{3, 1, byte(evKill), 0, byte(evArrive), 2, byte(evArrive)},
		{3, 1, byte(evEvict), 0, byte(evArrive), 2, byte(evArrive), 0, byte(evFinish), 1, byte(evRecover), 1, byte(evAnnounce)},
		{3, 1, byte(evKill), 1, byte(evJoin), 0, byte(evArrive), 2, byte(evArrive), 1, byte(evAnnounce), 0, byte(evLock)},
		{4, 1, byte(evFinish), 2, byte(evFinish), 0, byte(evArrive), 3, byte(evArrive)},
		{4, 1, byte(evFinish), 0, byte(evFinish), 2, byte(evFinish), 3, byte(evKill)},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ranks := int(data[0]%8) + 1
		const root = 0
		m := newMembership(ranks)
		shrunk := make([]bool, ranks) // excluded since the rank last trained
		check := func(step string) {
			var n [numPhases]int
			count := 0
			for i, s := range m.state {
				n[s.phase]++
				if (s.phase == arrived || s.phase == finished) && !s.alive() {
					t.Fatalf("%s: rank %d is counted by the round and dead: %v", step, i, s)
				}
				if s.phase == arrived || s.phase == finished {
					count++
				}
				if (s.evicted && s.phase <= departed) || (s.rejoin && s.phase != failed) {
					t.Fatalf("%s: rank %d carries a flag its phase cannot: %v", step, i, s)
				}
				switch s.phase {
				case excluded:
					shrunk[i] = true
				case member, arrived, finished:
					shrunk[i] = false
				}
			}
			if n != m.n {
				t.Fatalf("%s: phase counts %v, states say %v", step, m.n, n)
			}
			if count != m.n[arrived]+m.n[finished] {
				t.Fatalf("%s: the round counts %d, arrived members plus finished ranks are %d", step, count, m.n[arrived]+m.n[finished])
			}
		}
		settle := func() {
			if m.done(root) {
				for i := range m.state {
					m.to(i, evLeave)
				}
				check("leave")
				if m.n[finished] > 0 {
					t.Fatalf("finished ranks left behind: %v", m.state)
				}
			}
			if !m.releasable() {
				return
			}
			for i := range m.state {
				switch was := m.to(i, evRelease); was.phase {
				case failed:
					shrunk[i] = true // excluded, or straight on to a deferred rejoin
				case announced, admitting:
					if !shrunk[i] {
						t.Fatalf("rank %d admitted from %v without having been shrunk out", i, was)
					}
				}
			}
			check("release")
			if m.n[arrived]+m.n[finished]+m.n[failed]+m.n[announced]+m.n[admitting] != 0 {
				t.Fatalf("a released round left ranks parked or pending: %v", m.state)
			}
		}
		check("start")
		for i := 1; i+1 < len(data); i += 2 {
			rank, e := int(data[i])%ranks, event(data[i+1]%byte(numEvents))
			switch e {
			case evLeave, evRelease:
				// Only the plane's settling sends these.
			case evLock:
				for r := range m.state {
					m.to(r, evLock)
				}
			default:
				before := m.state[rank]
				func() {
					defer func() {
						if recover() != nil && m.state[rank] != before {
							t.Fatalf("an illegal %v moved rank %d from %v to %v", e, rank, before, m.state[rank])
						}
					}()
					m.to(rank, e)
				}()
			}
			check(fmt.Sprintf("%v on rank %d", e, rank))
			settle()
		}
	})
}
