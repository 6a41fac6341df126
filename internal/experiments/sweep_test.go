package experiments

import (
	"errors"
	"testing"

	"cxlfork/internal/params"
)

func TestSweepIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, err := sweep(params.Params{SimWorkers: workers}, 32, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 32 {
			t.Fatalf("workers=%d: %d results, want 32", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestSweepLowestIndexError checks that sweep reports the lowest-index
// failing cell, not the first to fail: at four workers cell 0 fails only
// after cell 1 has.
func TestSweepLowestIndexError(t *testing.T) {
	serialErr := errors.New("cell 3")
	_, err := sweep(params.Params{SimWorkers: 1}, 8, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, serialErr
		case 5:
			return 0, errors.New("cell 5")
		}
		return i, nil
	})
	if err != serialErr {
		t.Fatalf("serial sweep error = %v, want cell 3's", err)
	}

	err0 := errors.New("cell 0")
	failed1 := make(chan struct{})
	_, err = sweep(params.Params{SimWorkers: 4}, 8, func(i int) (int, error) {
		switch i {
		case 0:
			<-failed1
			return 0, err0
		case 1:
			defer close(failed1)
			return 0, errors.New("cell 1")
		}
		return i, nil
	})
	if err != err0 {
		t.Fatalf("parallel sweep error = %v, want cell 0's", err)
	}
}
