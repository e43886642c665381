// Package sharedwriteclean is the arena/barrier protocol done right:
// per-worker slots indexed by a task id, guarded commutative integer
// counters, channel-received work items, and a coordinator that commits
// after the barrier.
package sharedwriteclean

import "sync"

// Fan is the closure form: every goroutine write lands in a slot
// indexed by its own task id or behind the commutative-counter escape.
func Fan(vals []float64, workers int) float64 {
	partials := make([]float64, workers)
	var volume int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int, len(vals))
	for i := range vals {
		work <- i
	}
	close(work)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := 0.0
			for i := range work { // channel-received task id
				local += vals[i]
				mu.Lock()
				volume += 8 // guarded commutative integer counter
				mu.Unlock()
			}
			partials[w] = local // per-worker arena slot
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, p := range partials { // shard-order reduction at the barrier
		sum += p
	}
	return sum
}

// pool is the worker-pool form: a directly spawned method whose
// receiver is shared but whose writes are parameter-indexed arena slots.
type pool struct {
	arenas [][]int
	start  chan int
}

func (p *pool) worker(w int) {
	for t := range p.start {
		p.arenas[w] = append(p.arenas[w], t)
	}
}

// Run spawns the pool; the coordinator owns the commit after close.
func Run(workers int) *pool {
	p := &pool{arenas: make([][]int, workers), start: make(chan int)}
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	close(p.start)
	return p
}

// Signalled has a channel as its synchronization point: every goroutine
// writes its own slot and signals, and the caller receives once per
// goroutine before it reads the slots.
func Signalled(items []int) []int {
	results := make([]int, len(items))
	done := make(chan struct{})
	for i, it := range items {
		go func(i, it int) {
			results[i] = it * 2
			done <- struct{}{}
		}(i, it)
	}
	for range items {
		<-done
	}
	return results
}
