package ilp

// Parallel branch and bound. The search tree is split near the root into
// subtree tasks that a fixed pool of workers pulls from a shared deque;
// below the split depth each worker runs plain depth-first search on a
// local stack, so task bookkeeping costs nothing on the vast majority of
// nodes. Workers prune against a shared atomic incumbent bound, which is
// how one worker's discovery shrinks everyone else's tree.
//
// Determinism: the incumbent bound admits *equal*-objective solutions
// (obj ≤ bound, not obj < bound), so every optimal leaf survives pruning
// no matter when other workers publish incumbents. Among equal-objective
// solutions the canonical lexicographically-smallest value vector wins
// (see offer), making the final Solution.Values a pure function of the
// model — identical at any worker count and across runs. Only the node
// count, and the incumbent of a search truncated by MaxNodes, depend on
// scheduling.

import (
	"sync"
	"sync/atomic"

	"coremap/internal/pool"
)

// frame is one branch-and-bound subproblem: variable bounds plus the
// constraints to re-propagate (those touching the last-branched variable).
type frame struct {
	lo, hi []int64
	seed   []int32
	depth  int32
}

// engine owns the mutable state of one Solve call.
type engine struct {
	s          *solver
	workers    int
	maxNodes   int64
	splitDepth int32

	// bound is the shared objective cut: subtrees whose objective cannot
	// reach ≤ bound are pruned. PosInf until the first incumbent.
	bound atomic.Int64
	// nodes counts processed frames across all workers.
	nodes atomic.Int64
	// pruned counts frames discarded by propagation (domain wipe-out or
	// bound cut) before any branching.
	pruned atomic.Int64
	// aborted is set when the search stops early for any reason: node
	// budget expiry or context cancellation.
	aborted atomic.Bool
	// interrupted records that the early stop was a context cancellation
	// (set by the ctx watcher), distinguishing it from budget expiry.
	interrupted atomic.Bool

	mu      sync.Mutex
	wake    *sync.Cond
	deque   []frame // guarded by mu
	pending int     // frames on the deque plus frames in flight; guarded by mu
	closed  bool    // guarded by mu

	// best/bestObj are the incumbent solution and its objective;
	// post-join readers still take the (uncontended) lock so the
	// invariant stays machine-checkable (lockcheck).
	best    []int64 // guarded by mu
	bestObj int64   // guarded by mu
	// incumbents counts accepted incumbent updates; guarded by mu.
	incumbents int64

	// workerNodes[w] counts the frames worker w processed; each slot is
	// written only by its owning worker, and read after the pool joins.
	// It feeds the ilp/worker_nodes utilization histogram.
	workerNodes []int64
}

func newEngine(s *solver, workers, maxNodes int) *engine {
	e := &engine{s: s, workers: workers, maxNodes: int64(maxNodes),
		workerNodes: make([]int64, workers)}
	e.bound.Store(PosInf)
	e.wake = sync.NewCond(&e.mu)
	// Split only near the root: with the core-map models' branching
	// factor (a tile coordinate domain, ~5-6 values) two levels yield
	// tens of tasks — enough to keep a pool busy and to rebalance when
	// subtree sizes are skewed — while deeper frames stay on the owning
	// worker's local stack. workers == 1 never splits, and neither do
	// tiny node budgets: expanding a breadth-first frontier could burn
	// the whole budget before any worker completes a descent, whereas a
	// single depth-first worker reaches an incumbent in ~depth nodes.
	if workers > 1 && maxNodes >= 4096 {
		e.splitDepth = 2
		if workers >= 8 {
			e.splitDepth = 3
		}
	}
	return e
}

// run searches the tree rooted at root and blocks until the search is
// exhausted or the node budget expires. The root is published through
// share so the deque bookkeeping is lock-consistent from the first
// frame (share on an empty engine is exactly pending=1 + push).
func (e *engine) run(root frame) {
	e.share([]frame{root})
	if e.workers == 1 {
		e.worker(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
}

func (e *engine) worker(w int) {
	// Per-worker reusable state: the propagation scratch and a free list
	// for frame bound vectors. Both stay private to this goroutine, so no
	// synchronization is needed; a frame taken from the shared deque was
	// built by another worker's free list, but ownership transfers with
	// the frame, so recycling it here is safe.
	var sc propScratch
	var fl pool.FreeList[int64]
	for {
		f, ok := e.pop()
		if !ok {
			return
		}
		e.workerNodes[w] += e.runSubtree(f, &sc, &fl)
		e.finish()
	}
}

// pop blocks until a task is available or the search is over.
func (e *engine) pop() (frame, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.closed || e.aborted.Load() {
			return frame{}, false
		}
		if n := len(e.deque); n > 0 {
			f := e.deque[n-1]
			e.deque[n-1] = frame{}
			e.deque = e.deque[:n-1]
			return f, true
		}
		e.wake.Wait()
	}
}

// share publishes newly split subtrees on the deque for any worker to take.
func (e *engine) share(fs []frame) {
	e.mu.Lock()
	e.pending += len(fs)
	e.deque = append(e.deque, fs...)
	e.wake.Broadcast()
	e.mu.Unlock()
}

// finish retires one completed task; the last one shuts the pool down.
func (e *engine) finish() {
	e.mu.Lock()
	e.pending--
	if e.pending == 0 {
		e.closed = true
		e.wake.Broadcast()
	}
	e.mu.Unlock()
}

// abort stops the search because the node budget expired.
func (e *engine) abort() {
	e.mu.Lock()
	e.aborted.Store(true)
	e.wake.Broadcast()
	e.mu.Unlock()
}

// interrupt stops the search because the caller's context was cancelled.
// Workers observe the aborted flag at their next node (or wake from a
// blocked deque pop), so the search returns within one node's work.
func (e *engine) interrupt() {
	e.interrupted.Store(true)
	e.abort()
}

// runSubtree explores one task depth-first, returning the number of
// frames it processed. Frames shallower than splitDepth are pushed back
// onto the shared deque instead of the local stack, which is where
// parallelism comes from.
//
// Frame bound vectors cycle through fl: children copy the parent's
// (already propagated) bounds into recycled slices, and the parent's
// vectors are handed back once its children are built — after offer has
// copied the leaf, and never for frames published to the shared deque
// (share transfers ownership to whichever worker pops them). Abort paths
// simply drop frames on the floor; the GC reclaims them.
func (e *engine) runSubtree(task frame, sc *propScratch, fl *pool.FreeList[int64]) (visited int64) {
	s := e.s
	stack := []frame{task}
	for len(stack) > 0 {
		if e.aborted.Load() {
			return visited
		}
		if e.nodes.Add(1) > e.maxNodes {
			e.abort()
			return visited
		}
		visited++
		f := stack[len(stack)-1]
		stack[len(stack)-1] = frame{}
		stack = stack[:len(stack)-1]

		// A stale bound only weakens pruning (it is monotone
		// decreasing), never soundness, so one load per node suffices.
		if !s.propagate(f.lo, f.hi, f.seed, e.bound.Load(), sc) {
			e.pruned.Add(1)
			fl.Put(f.lo)
			fl.Put(f.hi)
			continue
		}
		v := s.pickVar(f.lo, f.hi)
		if v == -1 {
			e.offer(f.lo)
			fl.Put(f.lo)
			fl.Put(f.hi)
			continue
		}
		branch := func(x int64) frame {
			nl := fl.Get(len(f.lo)) //lint:allow poolsafe ownership moves into the child frame; Put happens when the frame is popped
			nh := fl.Get(len(f.hi)) //lint:allow poolsafe ownership moves into the child frame; Put happens when the frame is popped
			copy(nl, f.lo)
			copy(nh, f.hi)
			nl[v], nh[v] = x, x
			return frame{lo: nl, hi: nh, seed: s.occ[v], depth: f.depth + 1}
		}
		if f.depth < e.splitDepth {
			kids := make([]frame, 0, f.hi[v]-f.lo[v]+1)
			for x := f.hi[v]; x >= f.lo[v]; x-- {
				kids = append(kids, branch(x))
			}
			e.share(kids) // deque is LIFO, so low values are taken first
			fl.Put(f.lo)
			fl.Put(f.hi)
			continue
		}
		// Pushing in reverse makes the local stack explore ascending
		// values first, which suits the packing objective (small
		// indices first).
		for x := f.hi[v]; x >= f.lo[v]; x-- {
			stack = append(stack, branch(x))
		}
		fl.Put(f.lo)
		fl.Put(f.hi)
	}
	return visited
}

// offer proposes a fully assigned feasible leaf as the incumbent. The
// update rule is a total order — smaller objective, then lexicographically
// smaller values — so the surviving incumbent is the minimum over all
// offered leaves regardless of arrival order.
func (e *engine) offer(vals []int64) {
	z := e.s.objective(vals)
	v := append([]int64(nil), vals...)
	e.mu.Lock()
	if e.best == nil || z < e.bestObj || (z == e.bestObj && lexLess(v, e.best)) {
		e.best, e.bestObj = v, z
		e.incumbents++
		if e.s.objIdx >= 0 {
			e.bound.Store(z)
		}
	}
	e.mu.Unlock()
}
