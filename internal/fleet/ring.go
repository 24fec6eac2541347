package fleet

import (
	"runtime"
	"sync/atomic"
)

// ingressRing is a bounded multi-producer single-consumer queue of
// shard operations — the fleet's replacement for the per-shard request
// channel. Producers (Submit and SubmitBatch callers, and the control
// paths: Rediagnose, ProbeQuarantined, Attach and Detach) claim slots
// with one CAS on the tail; the shard goroutine consumes with plain
// loads and two stores. No mutex, no channel send, and no allocation
// sit on the hot path, so many client goroutines can feed one shard
// without serializing on anything wider than a cache line.
//
// The layout is the classic bounded sequence-number design (Vyukov):
// each slot carries a sequence word that encodes whether it is free for
// the producer lapping it (seq == pos) or holds a value for the
// consumer (seq == pos+1). head and tail live on their own cache lines
// so producers hammering tail never invalidate the consumer's head
// line.
type ingressRing struct {
	mask  uint64
	slots []ringSlot

	_    [cacheLine - 24]byte // keep tail off the header's line
	tail atomic.Uint64        // next position a producer claims
	_    [cacheLine - 8]byte  // ... and head off tail's
	head atomic.Uint64        // next position the consumer drains
}

// cacheLine is the assumed coherence granule. 64 bytes covers amd64
// and arm64; being wrong only costs false sharing, never correctness.
const cacheLine = 64

// ringSlot is one queue cell, padded so neighboring slots do not share
// a line between a storing producer and the draining consumer.
type ringSlot struct {
	seq atomic.Uint64
	op  *shardOp
	_   [cacheLine - 16]byte
}

// newIngressRing builds a ring with at least depth slots, rounded up
// to a power of two (minimum 2) so masking replaces modulo.
func newIngressRing(depth int) *ingressRing {
	n := 2
	for n < depth {
		n <<= 1
	}
	r := &ingressRing{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues op if the ring has room and reports whether it did.
// Safe for any number of concurrent producers. A false return means
// the ring was full at the attempt; callers spin (see shard.enqueue) —
// the consumer drains independently, so room always reappears.
func (r *ingressRing) push(op *shardOp) bool {
	for {
		pos := r.tail.Load()
		slot := &r.slots[pos&r.mask]
		switch seq := slot.seq.Load(); {
		case seq == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.op = op
				slot.seq.Store(pos + 1)
				return true
			}
			// Another producer claimed pos; retry at the new tail.
		case seq < pos:
			// The consumer has not freed this slot yet: full.
			return false
		default:
			// seq > pos: tail moved between the loads; retry.
		}
	}
}

// pop dequeues the next operation, or returns nil when the ring is
// empty. Single consumer only — the owning shard goroutine.
func (r *ingressRing) pop() *shardOp {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		return nil
	}
	op := slot.op
	slot.op = nil // no stale reference keeps a batch alive
	slot.seq.Store(pos + uint64(len(r.slots)))
	r.head.Store(pos + 1)
	return op
}

// depth reports how many operations are queued right now. It races
// benignly with producers and the consumer; the ingress gauge only
// needs a point-in-time reading.
func (r *ingressRing) depth() int {
	d := int64(r.tail.Load()) - int64(r.head.Load())
	if d < 0 {
		return 0
	}
	return int(d)
}

// enqueue blocks until the shard's ring accepts op, yielding between
// attempts — the fleet's backpressure: a full queue slows producers
// down instead of growing memory. Callers hold m.mu (read or write),
// which orders every enqueue before Close flips the shard to closing,
// so an accepted operation is always drained. After the push it wakes
// the shard if it had parked.
func (s *shard) enqueue(op *shardOp) {
	for !s.q.push(op) {
		runtime.Gosched()
	}
	// Park/wake protocol, producer half: the consumer publishes
	// idleness before its final recheck, so either it sees our push or
	// we see its idle flag and hand it the wake token. The CAS elects
	// exactly one waker among concurrent producers.
	if s.idle.CompareAndSwap(true, false) {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}
