package sim

// Buffered trace replay. Every figure's innermost loop used to call
// Generator.Next once per reference; replay instead fills a reusable
// chunk buffer (Generator.Fill) and walks it, so the generator's state
// stays hot and the loop body is a plain slice scan. Chunking cannot
// change any result: Fill is exactly n sequential Next calls, so the
// reference stream — and with it every TLB and page-table interaction —
// is identical at any chunk size.

import (
	"context"

	"clusterpt/internal/addr"
	"clusterpt/internal/trace"
)

// replayChunk is the references generated per Fill. Large enough to
// amortize loop setup, small enough to stay cache-resident (32KB).
const replayChunk = 4096

// ReplayBuf is a reusable chunk-buffer free list for the replay loops.
// The engine hands each worker one, so a worker's cells share chunk
// allocations for the whole run; a nil *ReplayBuf still works and
// allocates per replay.
//
// It is a free list rather than a single slot because the fanned-out
// Figure 11 replay keeps several chunks in flight at once (reference
// and miss buffers per stage), and because take used to
// discard a grown backing array whenever a later caller asked for a
// different chunk size — every buffer returned through put stays
// available for any subsequent take it can satisfy. It also keeps the
// Figure 11 walk stage's cost memos, so a worker's cells reuse one
// memo slab per walk lane. Not safe for concurrent use: only the
// replay's driver goroutine touches it.
type ReplayBuf struct {
	free  [][]addr.V
	memos []*costMemo
}

// take returns an empty chunk with capacity at least n, reusing the
// largest-capacity free buffer that satisfies the request and
// allocating only when none does.
func (b *ReplayBuf) take(n int) []addr.V {
	if b == nil {
		return make([]addr.V, 0, n)
	}
	best := -1
	for i, s := range b.free {
		if cap(s) < n {
			continue
		}
		if best < 0 || cap(s) > cap(b.free[best]) {
			best = i
		}
	}
	if best < 0 {
		return make([]addr.V, 0, n)
	}
	s := b.free[best]
	last := len(b.free) - 1
	b.free[best] = b.free[last]
	b.free = b.free[:last]
	return s[:0]
}

// put returns a chunk to the free list for later takes. Zero-capacity
// slices are dropped; everything else is retained regardless of the
// size it was taken at, so growth is never thrown away.
func (b *ReplayBuf) put(s []addr.V) {
	if b == nil || cap(s) == 0 {
		return
	}
	b.free = append(b.free, s)
}

// takeMemo returns a cleared walk-cost memo sized for snap (see
// costMemo.reset), reusing a returned memo's storage when one is free.
func (b *ReplayBuf) takeMemo(snap trace.ProcessSnapshot, stride int, blocks bool) *costMemo {
	var m *costMemo
	if b != nil && len(b.memos) > 0 {
		m = b.memos[len(b.memos)-1]
		b.memos = b.memos[:len(b.memos)-1]
	} else {
		m = new(costMemo)
	}
	m.reset(snap, stride, blocks)
	return m
}

// putMemo returns a memo for later takeMemo calls.
func (b *ReplayBuf) putMemo(m *costMemo) {
	if b != nil {
		b.memos = append(b.memos, m)
	}
}

// replay streams refs references from gen through step in buffered
// chunks. step returning an error aborts the replay.
func replay(gen *trace.Generator, buf *ReplayBuf, refs int, step func(addr.V) error) error {
	chunk := buf.take(replayChunk)
	defer func() { buf.put(chunk) }()
	for refs > 0 {
		n := replayChunk
		if n > refs {
			n = refs
		}
		chunk = gen.Fill(chunk, n)
		for _, va := range chunk {
			if err := step(va); err != nil {
				return err
			}
		}
		refs -= n
	}
	return nil
}

// replayBufKey carries a per-worker ReplayBuf through a context.
type replayBufKey struct{}

// WithReplayBuf attaches a fresh ReplayBuf to ctx. The engine calls it
// once per worker goroutine so all cells that worker runs share one
// buffer; the buffer is not safe for concurrent use.
func WithReplayBuf(ctx context.Context) context.Context {
	return context.WithValue(ctx, replayBufKey{}, &ReplayBuf{})
}

// ReplayBufFrom returns the context's ReplayBuf, or nil (callers and
// replay treat nil as "allocate locally").
func ReplayBufFrom(ctx context.Context) *ReplayBuf {
	b, _ := ctx.Value(replayBufKey{}).(*ReplayBuf)
	return b
}
