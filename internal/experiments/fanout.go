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
// Inputs are handed out in index order to min(workers, n) goroutines,
// and an input starts only once every earlier input that shares a
// routine with it has finished. No two inputs in flight then share a
// function (TestInputsShareFunctionsOnlyThroughMembers), and hence a
// cache key or a memo run, so each input's compiles meet the same cache
// and memo contents at any worker count: outputs, hit flags and counters
// equal the sequential loop's as long as neither bounded tier evicts.
// With one worker this is the sequential loop. Once ctx is done the pool
// hands out nothing more; the inputs it never handed out are measured
// here in order, as the sequential loop would, and the first fails at
// once on the done context with the error that loop returns.
//
// The driver's pool (Driver.forEach) serves a compile's stages, which
// need neither dependency waits nor index-ordered errors, so the harness
// keeps its own.
func measureInputs(ctx context.Context, workers int, members [][]string, measure func(i int) error) error {
	next := 0
	if workers = min(workers, len(members)); workers > 1 {
		var err error
		if next, err = fanOut(ctx, workers, members, measure); err != nil {
			return err
		}
	}
	for ; next < len(members); next++ {
		if err := measure(next); err != nil {
			return err
		}
	}
	return nil
}

// fanOut is measureInputs' pool. It returns how many inputs it handed
// out and the lowest-index error among them.
func fanOut(ctx context.Context, workers int, members [][]string, measure func(i int) error) (int, error) {
	n := len(members)
	after := sharedEarlier(members)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	errs := make([]error, n)
	var (
		mu     sync.Mutex
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	// take records whether the worker's previous input failed and hands
	// out the next one. After a failure nothing more is handed out, as
	// every later index would lose to it, nor once ctx is done.
	take := func(prev error) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if prev != nil {
			failed = true
		}
		if next == n || failed || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var err error
			for {
				i, ok := take(err)
				if !ok {
					return
				}
				for _, j := range after[i] {
					<-done[j]
				}
				err = measure(i)
				errs[i] = err
				close(done[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs[:next] {
		if err != nil {
			return next, err
		}
	}
	return next, nil
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
