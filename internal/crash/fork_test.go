package crash

import (
	"fmt"
	"reflect"
	"testing"

	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/machine"
	"supermem/internal/workload"
)

// successor is what one recovery leaves behind, as far as the fuzzer's
// verdicts and diagnostics read it.
type successor struct {
	Crashed, Pending bool
	Persists, Probes int
	Tree             []byte
	Lines            []uint64
	Bytes            [][]byte
	Ctrs             []ctr.Line
	CtrPersisted     []bool
}

func successorOf(r *machine.Machine) successor {
	s := successor{
		Crashed:  r.Crashed(),
		Pending:  r.RecoveryPending(),
		Persists: r.Persists(),
		Probes:   r.OsirisProbes(),
		Tree:     r.TreeSnapshot(),
		Lines:    r.NVMLines(),
	}
	for _, a := range s.Lines {
		s.Bytes = append(s.Bytes, r.Load(a, config.LineSize))
		cl, ok := r.PersistedCounter(a / config.PageSize)
		s.Ctrs = append(s.Ctrs, cl)
		s.CtrPersisted = append(s.CtrPersisted, ok)
	}
	return s
}

// recoverNested recovers m with a nested crash armed at rec (negative:
// none) and, when it strikes, recovers again, as recoverAndCheck does.
// It returns the first successor's state and the final one's.
func recoverNested(m *machine.Machine, rec int, pads *machine.PadCache) (first, final successor) {
	r, _, _ := recoverDrained(m, machine.WithPadCache(pads), machine.WithCrashAtPersist(rec))
	first = successorOf(r)
	if r.Crashed() {
		r, _, _ = recoverDrained(r)
	}
	return first, successorOf(r)
}

// A fork is the machine runToCrash leaves at the same point: for every
// workload, mode and outer crash point, the two report the same crash,
// and recovering either — plainly, or with a nested crash at the first
// recovery persist or mid-recovery — leaves the same successor. The
// counter hammer adds forks taken mid page re-encryption, with the RSR
// armed. Each fork is recovered twice: on its worker while the run it
// came from goes on (two workers, so the race detector sees any state
// the two share), and again after the run has finished, when any shared
// state the run went on mutating shows as a different successor.
func TestForkedCrashMatchesRunToCrash(t *testing.T) {
	cases := map[string]Params{
		"ctrhammer": {Workload: "ctrhammer", Steps: 1, Attack: workload.AttackConfig{HotPages: 2}},
	}
	for _, wl := range workload.Names {
		cases[wl] = FuzzParams{Workload: wl, Steps: 3}.withDefaults().params(0)
	}
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base = base.withDefaults()
			pads, err := machine.NewPadCache(base.Key)
			if err != nil {
				t.Fatal(err)
			}
			nestedStruck := 0
			for _, mode := range AllModes {
				p := base
				p.Mode = mode
				total, _, err := persistProfile(p)
				if err != nil {
					t.Fatal(err)
				}
				points := make([]int, total)
				for i := range points {
					points[i] = i
				}
				forks := make([]fork, total)
				during := make([]successor, total)
				err = forkRun(p, points, 2, func(f fork) error {
					_, during[f.i] = recoverNested(f.m, -1, f.pads)
					forks[f.i] = f
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range forks {
					if f.m == nil {
						t.Fatalf("%v: the run never forked at %d of its %d persists", mode, points[i], total)
					}
				}
				for _, f := range forks {
					at := points[f.i]
					m, _, completed, err := runToCrash(p, at, nil)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%v crash@%d", mode, at)
					if f.m.Crashed() != m.Crashed() || f.m.Persists() != m.Persists() || f.completed != completed {
						t.Fatalf("%s: fork crashed=%v persists=%d completed=%d, runToCrash crashed=%v persists=%d completed=%d",
							where, f.m.Crashed(), f.m.Persists(), f.completed, m.Crashed(), m.Persists(), completed)
					}
					_, plain := recoverNested(m, -1, pads)
					if !reflect.DeepEqual(during[f.i], plain) {
						t.Fatalf("%s: fork recovered during the run\n%+v\nrunToCrash successor\n%+v", where, during[f.i], plain)
					}
					for _, rec := range []int{-1, 0, plain.Persists / 2} {
						wantFirst, want := recoverNested(m, rec, pads)
						gotFirst, got := recoverNested(f.m, rec, pads)
						if !reflect.DeepEqual(gotFirst, wantFirst) || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s recovery@%d: forked successor\n%+v\nrunToCrash successor\n%+v", where, rec, got, want)
						}
						if gotFirst.Crashed {
							nestedStruck++
						}
					}
				}
			}
			if nestedStruck == 0 {
				t.Fatal("no nested crash struck: the nested comparisons are vacuous")
			}
		})
	}
}
