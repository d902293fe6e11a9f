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

// ReplayBuf holds one reusable replay chunk and one walk-cost memo.
// The engine hands each worker one, so a worker's cells share those
// allocations for the whole run; a nil *ReplayBuf still works and
// allocates per replay. Every replay has exactly one chunk in flight,
// so one slot suffices. Not safe for concurrent use.
type ReplayBuf struct {
	chunk []addr.V
	memo  costMemo
}

// take returns an empty chunk with capacity at least n: the held chunk
// when it is large enough, else a fresh one.
func (b *ReplayBuf) take(n int) []addr.V {
	if b == nil || cap(b.chunk) < n {
		return make([]addr.V, 0, n)
	}
	s := b.chunk[:0]
	b.chunk = nil
	return s
}

// put hands a chunk back for later takes, keeping the larger of it and
// the held one, so growth is never thrown away.
func (b *ReplayBuf) put(s []addr.V) {
	if b != nil && cap(s) > cap(b.chunk) {
		b.chunk = s
	}
}

// takeMemo returns the walk-cost memo cleared and sized for snap (see
// costMemo.reset), reusing the held memo's storage.
func (b *ReplayBuf) takeMemo(snap trace.ProcessSnapshot, stride int, blocks bool) *costMemo {
	var m *costMemo
	if b != nil {
		m = &b.memo
	} else {
		m = new(costMemo)
	}
	m.reset(snap, stride, blocks)
	return m
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
