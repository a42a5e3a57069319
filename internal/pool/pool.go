// Package pool provides the repo's memory-reuse primitives: slab arenas
// for long-lived records, sync.Pool-backed scratch buffers for transient
// per-sweep state, and single-goroutine free lists for search node state.
//
// The measurement and reconstruction pipelines allocate in three distinct
// patterns, and each type here serves exactly one of them:
//
//   - Slab: many small slices built incrementally and then retained for the
//     lifetime of a result (observation records, constraint term rows).
//     A slab hands out exclusively-owned windows of large chunks, so the
//     allocator sees one allocation per chunk instead of one per record.
//     Slabs are grow-only: nothing is ever handed back, so retained windows
//     can never be aliased by later allocations.
//
//   - Scratch: fixed-size work buffers that live for one sweep (a PMON
//     counter read across all CHAs) and are then returned. Backed by
//     sync.Pool, so concurrent pipelines share a warm buffer set.
//
//   - FreeList: slices recycled at high frequency by a single goroutine (a
//     enumeration's node bound vectors), where even sync.Pool
//     overhead is measurable.
//
// Reset discipline: a buffer obtained from Scratch or FreeList must be
// returned with Put exactly once, after which the caller must not retain
// any reference to it. Get zeroes the requested prefix, so stale state can
// never leak across users — but only for the requested length, which is why
// Put must never be called with a buffer the caller sliced beyond its
// original length. The coremaplint poolsafe analyzer enforces the pairing
// mechanically in stage packages.
package pool

import "sync"

// Slab is a grow-only arena of T values. Alloc returns zero-length,
// fixed-capacity windows carved out of large chunks; appending within the
// window's capacity never reallocates and never aliases another window.
//
// The zero value is ready to use. Slab is not safe for concurrent use.
type Slab[T any] struct {
	chunk []T
	// chunkCap is the capacity of newly grown chunks; it starts at
	// minChunk and doubles up to maxChunk as the slab grows.
	chunkCap int
}

const (
	minChunk = 256
	maxChunk = 64 * 1024
)

// Alloc returns a zero-length window with capacity exactly n. The window is
// exclusively owned by the caller: append up to n elements without
// reallocation, and retain it as long as needed.
func (s *Slab[T]) Alloc(n int) []T {
	if n <= 0 {
		return nil
	}
	if s.chunkCap == 0 {
		s.chunkCap = minChunk
	}
	if n > cap(s.chunk)-len(s.chunk) {
		for s.chunkCap < n {
			s.chunkCap *= 2
		}
		s.chunk = make([]T, 0, s.chunkCap)
		if s.chunkCap < maxChunk {
			s.chunkCap *= 2
		}
	}
	off := len(s.chunk)
	s.chunk = s.chunk[:off+n]
	return s.chunk[off : off : off+n]
}

// Clone copies vals into a slab window of exactly matching capacity. A nil
// or empty input returns nil.
func (s *Slab[T]) Clone(vals []T) []T {
	if len(vals) == 0 {
		return nil
	}
	w := s.Alloc(len(vals))
	return append(w, vals...)
}

// Scratch is a pool of reusable []T scratch buffers backed by sync.Pool.
// The zero value is ready to use and safe for concurrent use.
type Scratch[T any] struct {
	p sync.Pool
}

// Get returns a buffer of length n whose first n elements are zero values.
// The buffer must be handed back with Put when the caller is done, and must
// not be retained or resliced past n afterwards.
func (s *Scratch[T]) Get(n int) []T {
	if v := s.p.Get(); v != nil {
		b := v.([]T)
		if cap(b) >= n {
			b = b[:n]
			var zero T
			for i := range b {
				b[i] = zero
			}
			return b
		}
	}
	return make([]T, n)
}

// Put returns a buffer obtained from Get to the pool.
func (s *Scratch[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	s.p.Put(b[:cap(b)])
}

// FreeList recycles []T slices within one goroutine, with no
// synchronization. The zero value is ready to use.
type FreeList[T any] struct {
	free [][]T
}

// Get returns a slice of length n. Contents are NOT zeroed — callers that
// need zeroed state must write every element (search bound vectors are
// always fully copied into).
func (f *FreeList[T]) Get(n int) []T {
	if k := len(f.free); k > 0 {
		b := f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]T, n)
}

// Put hands a slice back for reuse. The caller must not retain b.
func (f *FreeList[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	f.free = append(f.free, b)
}
