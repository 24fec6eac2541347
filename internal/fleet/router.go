package fleet

import (
	"fmt"
	"sync"
	"time"

	"ssdcheck/internal/blockdev"
)

// Request is one fleet request: a block I/O addressed to a device by
// ID.
type Request struct {
	DeviceID string      `json:"device"`
	Op       blockdev.Op `json:"-"`
	LBA      int64       `json:"lba"`
	Sectors  int         `json:"sectors"`
}

// block converts to the device vocabulary; a zero length defaults to
// one page. Negative lengths and out-of-range LBAs are rejected by
// the submit paths before this runs.
func (r Request) block() blockdev.Request {
	if r.Sectors <= 0 {
		r.Sectors = blockdev.SectorsPerPage
	}
	return blockdev.Request{Op: r.Op, LBA: r.LBA, Sectors: r.Sectors}
}

// lookup resolves and validates one request's addressing under m.mu.
// The returned error is the per-request failure (unknown device, bad
// address); md is non-nil iff err is nil.
func (m *Manager) lookup(r Request) (*managedDevice, error) {
	md, ok := m.devs[r.DeviceID]
	if !ok {
		return nil, fmt.Errorf("device %q: %w", r.DeviceID, ErrUnknownDevice)
	}
	if cap := md.dev.CapacitySectors(); r.LBA < 0 || r.LBA >= cap {
		return nil, fmt.Errorf("fleet: device %q: LBA %d outside [0, %d)", r.DeviceID, r.LBA, cap)
	}
	if r.Sectors < 0 {
		return nil, fmt.Errorf("fleet: device %q: negative request length %d", r.DeviceID, r.Sectors)
	}
	return md, nil
}

// Submit routes one request to the shard owning the device, runs it
// through the resilience pipeline, and returns the prediction plus the
// observed outcome. It blocks until the request completes. The
// request's own failure (unknown device, quarantine, exhausted
// retries) is returned as the error, so single-request callers need
// not inspect Result.Err.
//
// This is the sharded fast path: no batch assembly, no per-shard
// fan-out bookkeeping — one pooled operation carrying its result
// inline goes straight into the owning shard's ingress ring, and the
// whole round trip allocates nothing in steady state.
func (m *Manager) Submit(deviceID string, op blockdev.Op, lba int64, sectors int) (Result, error) {
	r := Request{DeviceID: deviceID, Op: op, LBA: lba, Sectors: sectors}

	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return Result{}, ErrManagerClosed
	}
	md, err := m.lookup(r)
	if err != nil {
		m.mu.RUnlock()
		return errResult(deviceID, err), err
	}
	sop := m.getOp()
	sop.items = append(sop.items, batchItem{md: md, req: r.block(), idx: 0})
	sop.out = sop.inline[:1]
	sop.wg = &sop.ownWG
	sop.ownWG.Add(1)
	sop.enq = time.Now()
	m.shards[md.shard].enqueue(sop)
	m.mu.RUnlock()

	sop.ownWG.Wait()
	res := sop.inline[0]
	m.putOp(sop)
	return res, res.Err
}

// SubmitBatch routes a batch of requests through the per-shard ingress
// rings and returns one result per request, in input order. It is
// SubmitBatchInto with a freshly allocated result slice — callers on
// the hot path that want the allocation-free round trip should hold a
// result buffer and call SubmitBatchInto directly.
func (m *Manager) SubmitBatch(reqs []Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]Result, len(reqs))
	if err := m.SubmitBatchInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitBatchInto routes a batch of requests through the per-shard
// ingress rings, writing the result for reqs[i] into out[i]. Requests
// to the same device are processed in their batch order; requests to
// devices on different shards proceed in parallel. len(out) must equal
// len(reqs).
//
// Failures are per-request: an unknown device, an invalid address, a
// quarantined device or an exhausted retry budget mark only that
// entry's Result.Err (typed, errors.Is-compatible), and the rest of
// the batch proceeds — one failing device never poisons a batch for
// the healthy ones. The returned error is reserved for batch-level
// problems (a closed manager, a length mismatch).
//
// The round trip is allocation-free in steady state: per-shard
// operations and the fan-out table come from pools and are recycled
// after the batch's WaitGroup clears, so a caller reusing its request
// and result slices submits millions of batches without touching the
// heap.
func (m *Manager) SubmitBatchInto(reqs []Request, out []Result) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(out) != len(reqs) {
		return fmt.Errorf("fleet: SubmitBatchInto: %d results for %d requests", len(out), len(reqs))
	}

	// The read lock covers device lookup (membership changes under the
	// write lock via Attach/Detach) and orders every enqueue before
	// Close flips the shards to closing; shards drain their rings fully
	// before exiting, so an enqueue accepted here always completes.
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrManagerClosed
	}

	// Fan out per shard. Invalid entries fail in place and are never
	// dispatched; valid ones append to their shard's pooled operation.
	d := m.getDispatch()
	for i, r := range reqs {
		md, err := m.lookup(r)
		if err != nil {
			out[i] = errResult(r.DeviceID, err)
			continue
		}
		sop := d.ops[md.shard]
		if sop == nil {
			sop = m.getOp()
			sop.out = out
			sop.wg = &d.wg
			d.ops[md.shard] = sop
			d.n++
		}
		sop.items = append(sop.items, batchItem{md: md, req: r.block(), idx: i})
	}
	if d.n == 0 {
		m.mu.RUnlock()
		m.putDispatch(d)
		return nil
	}
	d.wg.Add(d.n)
	now := time.Now()
	for sid, sop := range d.ops {
		if sop != nil {
			sop.enq = now
			m.shards[sid].enqueue(sop)
		}
	}
	m.mu.RUnlock()

	d.wg.Wait()
	for sid, sop := range d.ops {
		if sop != nil {
			d.ops[sid] = nil
			m.putOp(sop)
		}
	}
	d.n = 0
	m.putDispatch(d)
	return nil
}

// dispatch is the pooled fan-out table behind one SubmitBatchInto
// call: one operation slot per shard plus the batch's WaitGroup. Slots
// are indexed by shard ID; n counts the non-nil ones.
type dispatch struct {
	wg  sync.WaitGroup
	ops []*shardOp
	n   int
}

func (m *Manager) getOp() *shardOp {
	return m.opPool.Get().(*shardOp)
}

func (m *Manager) putOp(op *shardOp) {
	op.reset()
	m.opPool.Put(op)
}

// enqueueCtl queues control work fn — nil for a barrier — on shard sh.
// The caller holds m.mu and, once it lets go, hands the op to waitCtl.
func (m *Manager) enqueueCtl(sh int, fn func(*Config)) *shardOp {
	op := m.getOp()
	op.ctl = fn
	op.wg = &op.ownWG
	op.ownWG.Add(1)
	op.enq = time.Now()
	m.shards[sh].enqueue(op)
	return op
}

// waitCtl waits until the shard has run op, then recycles it.
func (m *Manager) waitCtl(op *shardOp) {
	op.ownWG.Wait()
	m.putOp(op)
}

func (m *Manager) getDispatch() *dispatch {
	d := m.dispatchPool.Get().(*dispatch)
	if len(d.ops) < len(m.shards) {
		d.ops = make([]*shardOp, len(m.shards))
	}
	return d
}

func (m *Manager) putDispatch(d *dispatch) {
	m.dispatchPool.Put(d)
}
