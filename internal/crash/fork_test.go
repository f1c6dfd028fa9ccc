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
func recoverNested(m *machine.Machine, rec int) (first, final successor) {
	r, _, _ := recoverDrained(m, machine.WithCrashAtPersist(rec))
	first = successorOf(r)
	if r.Crashed() {
		r, _, _ = recoverDrained(r)
	}
	return first, successorOf(r)
}

// A fork is the machine runToCrash leaves at the same point: for every
// workload, mode and outer crash point, the two report the same crash,
// and recovering either — plainly, with a nested crash at the first
// recovery persist or mid-recovery, or in stages under a recovery-work
// bound — leaves the same successor. The counter hammer adds forks
// taken mid page re-encryption, with the RSR armed, where the bound
// bites. Each fork is recovered twice: inside the run, paused at the
// fork's persist, and again after the run has finished, when any state
// the fork shares with the run (beyond the key-pure pad cache) that the
// run went on mutating shows as a different successor.
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
			nestedStruck, boundBit := 0, 0
			for _, mode := range AllModes {
				p := base
				p.Mode = mode
				pr, err := profileRun(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				total := pr.total
				points := make([]int, total)
				for i := range points {
					points[i] = i
				}
				forks := make([]fork, total)
				during := make([]successor, total)
				err = forkRun(p, points, func(f fork) error {
					_, during[f.i] = recoverNested(f.m, -1)
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
					_, plain := recoverNested(m, -1)
					if !reflect.DeepEqual(during[f.i], plain) {
						t.Fatalf("%s: fork recovered during the run\n%+v\nrunToCrash successor\n%+v", where, during[f.i], plain)
					}
					for _, rec := range []int{-1, 0, plain.Persists / 2} {
						wantFirst, want := recoverNested(m, rec)
						gotFirst, got := recoverNested(f.m, rec)
						if !reflect.DeepEqual(gotFirst, wantFirst) || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s recovery@%d: forked successor\n%+v\nrunToCrash successor\n%+v", where, rec, got, want)
						}
						if gotFirst.Crashed {
							nestedStruck++
						}
					}
					const bound = 8
					want, wantPasses, wantMax := recoverDrained(m, machine.WithRecoveryBound(bound))
					got, gotPasses, gotMax := recoverDrained(f.m, machine.WithRecoveryBound(bound))
					if gotPasses != wantPasses || gotMax != wantMax || got.BoundedRecoveries() != want.BoundedRecoveries() {
						t.Fatalf("%s bound %d: fork ran %d passes (largest %d, %d bounded), runToCrash %d (largest %d, %d bounded)",
							where, bound, gotPasses, gotMax, got.BoundedRecoveries(), wantPasses, wantMax, want.BoundedRecoveries())
					}
					if g, w := successorOf(got), successorOf(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s bound %d: forked successor\n%+v\nrunToCrash successor\n%+v", where, bound, g, w)
					}
					if want.BoundedRecoveries() > 0 {
						boundBit++
					}
				}
			}
			if nestedStruck == 0 {
				t.Fatal("no nested crash struck: the nested comparisons are vacuous")
			}
			if name == "ctrhammer" && boundBit == 0 {
				t.Fatal("the recovery bound never bit mid re-encryption: the bounded comparisons are vacuous")
			}
		})
	}
}
