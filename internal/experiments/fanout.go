package experiments

import (
	"context"
	"sync"
)

// measureInputs runs measure(i) for every input i of a harness loop and
// returns the lowest-index error, the one a sequential loop over the
// inputs returns. members[i] names the suite routines input i is built
// from: the routine itself, or a whole program's Members.
//
// Up to min(workers, n) goroutines each take the lowest-index input not
// yet handed out whose earlier inputs sharing a routine with it have all
// finished. No two inputs in flight then share a function
// (TestInputsShareFunctionsOnlyThroughMembers), and hence a cache key or
// a memo run, and of two inputs that share one the earlier always
// finishes first, so each input's compiles meet the same cache and memo
// contents at any worker count: outputs, hit flags and counters equal
// the sequential loop's as long as neither bounded tier evicts. With one
// worker this is the sequential loop. Once ctx is done the pool hands
// out nothing more; the inputs it never handed out are measured here in
// index order, as the sequential loop would, and the first fails at once
// on the done context with the error that loop returns.
//
// The driver's pool (Driver.forEach) serves a compile's stages, which
// need neither dependency waits nor index-ordered errors, so the harness
// keeps its own.
func measureInputs(ctx context.Context, workers int, members [][]string, measure func(i int) error) error {
	handed := make([]bool, len(members))
	errs := make([]error, len(members))
	if workers = min(workers, len(members)); workers > 1 {
		fanOut(ctx, workers, members, measure, handed, errs)
	}
	for i := range members {
		if !handed[i] {
			errs[i] = measure(i)
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// fanOut is measureInputs' pool. It marks each input it hands out in
// handed and stores its error in errs.
func fanOut(ctx context.Context, workers int, members [][]string, measure func(i int) error, handed []bool, errs []error) {
	after := sharedEarlier(members)
	finished := make([]bool, len(members))
	var (
		mu      sync.Mutex
		changed = sync.NewCond(&mu) // an input finished
		// Only inputs below the lowest failed one are handed out: the
		// later ones would lose to its error, the earlier ones may beat it.
		bound = len(members)
		wg    sync.WaitGroup
	)
	ready := func(i int) bool {
		for _, j := range after[i] {
			if !finished[j] {
				return false
			}
		}
		return true
	}
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		finished[i], errs[i] = true, err
		if err != nil {
			bound = min(bound, i)
		}
		changed.Broadcast()
	}
	// take hands out the lowest-index ready input below bound. When
	// inputs are left but none is ready, it waits for one to finish: the
	// lowest input left waits only on lower ones, all handed out, so one
	// of them is still in flight.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for ctx.Err() == nil {
			left := false
			for i := 0; i < bound; i++ {
				if handed[i] {
					continue
				}
				if ready(i) {
					handed[i] = true
					return i, true
				}
				left = true
			}
			if !left {
				break
			}
			changed.Wait()
		}
		return 0, false
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				finish(i, measure(i))
			}
		}()
	}
	wg.Wait()
}

// sharedEarlier lists, for each input, the latest earlier input that
// includes each of its routines. Waiting for those is waiting for every
// earlier input that shares a routine with it, since each of them waits
// in turn for the one before it.
func sharedEarlier(members [][]string) [][]int {
	after := make([][]int, len(members))
	last := map[string]int{}
	for i, ms := range members {
		for _, m := range ms {
			if j, ok := last[m]; ok {
				after[i] = append(after[i], j)
			}
		}
		for _, m := range ms {
			last[m] = i
		}
	}
	return after
}
