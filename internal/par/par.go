// Package par provides the deterministic worker-pool primitive shared
// by the experiment runner (internal/bench: simulation cells, sweep
// runs, Table 1's modes) and the crash fuzzer (internal/crash: one
// machine mode per index): fan an index space across N workers with
// deterministic error selection, so parallel sweeps report byte-for-byte
// the same outcome as serial ones. It is the only code outside tests
// that starts goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachIndex runs fn(0..n-1) across the given number of workers
// (<= 0 means GOMAXPROCS) and waits for all of them. On failure the lowest failing index's error is
// returned — deterministically: indexes above a recorded failure are
// skipped (early stop), but an index is never skipped while any lower
// index might still fail, because the stop marker only moves down and
// every index below it runs to completion.
func ForEachIndex(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Int64 // lowest failing index seen so far
	stop.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int64(next.Add(1) - 1)
				if i >= int64(n) || i > stop.Load() {
					return
				}
				if err := fn(int(i)); err != nil {
					errs[i] = err
					for {
						cur := stop.Load()
						if i >= cur || stop.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
