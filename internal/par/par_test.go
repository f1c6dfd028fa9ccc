package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachIndexVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		var visited [100]atomic.Bool
		if err := ForEachIndex(workers, len(visited), func(i int) error {
			if visited[i].Swap(true) {
				return fmt.Errorf("index %d visited twice", i)
			}
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visited {
			if !visited[i].Load() {
				t.Fatalf("workers=%d: index %d never visited", workers, i)
			}
		}
	}
}

func TestForEachIndexZeroN(t *testing.T) {
	if err := ForEachIndex(4, 0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatal(err)
	}
}

// The error contract: whatever the worker count, the error of the
// lowest failing index is the one returned.
func TestForEachIndexLowestError(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		err := ForEachIndex(workers, 50, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@3" {
			t.Fatalf("workers=%d: err = %v, want fail@3", workers, err)
		}
	}
}

// Indexes below a failure always run: the early stop may skip only
// higher indexes.
func TestForEachIndexNoLowSkips(t *testing.T) {
	var ran [40]atomic.Bool
	_ = ForEachIndex(8, len(ran), func(i int) error {
		ran[i].Store(true)
		if i == 20 {
			return errors.New("boom")
		}
		return nil
	})
	for i := 0; i <= 20; i++ {
		if !ran[i].Load() {
			t.Fatalf("index %d below the failure was skipped", i)
		}
	}
}
