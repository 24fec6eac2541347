package sched

import (
	"container/list"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/core"
	"ssdcheck/internal/host"
	"ssdcheck/internal/simclock"
)

// ReadPredictor answers PAS's one question (paper §IV-B): would the
// oldest queued read, served in its *original order* behind
// pendingWritePages of older writes, be high-latency? The production
// implementation is SSDcheck's prediction engine; the ideal variant
// plugs in a ground-truth oracle.
type ReadPredictor interface {
	PredictHL(req blockdev.Request, now simclock.Time, pendingWritePages int) bool
	Observe(req blockdev.Request, dispatch, done simclock.Time)
}

// SSDcheckPredictor adapts core.Predictor to the PAS interface.
type SSDcheckPredictor struct {
	P *core.Predictor
}

// PredictHL implements ReadPredictor.
func (s SSDcheckPredictor) PredictHL(req blockdev.Request, now simclock.Time, pendingWritePages int) bool {
	return s.P.PredictReadInOrder(req, now, pendingWritePages).HL
}

// Observe implements ReadPredictor.
func (s SSDcheckPredictor) Observe(req blockdev.Request, dispatch, done simclock.Time) {
	s.P.Observe(req, dispatch, done)
}

// OracleFunc adapts a ground-truth closure (evaluation only) to the PAS
// interface — the "ideal" scheduler of Fig. 14 whose gap to real PAS is
// exactly the cost of misprediction.
type OracleFunc func(req blockdev.Request, now simclock.Time, pendingWritePages int) bool

// PredictHL implements ReadPredictor.
func (f OracleFunc) PredictHL(req blockdev.Request, now simclock.Time, pendingWritePages int) bool {
	return f(req, now, pendingWritePages)
}

// Observe implements ReadPredictor.
func (OracleFunc) Observe(blockdev.Request, simclock.Time, simclock.Time) {}

// PAS is the paper's SSD-only Prediction-Aware Scheduler (§IV-B): FIFO
// order, except that when the oldest read is predicted high-latency —
// meaning a buffer flush is imminent or in progress — the read is
// promoted ahead of older writes so it is serviced before the NAND is
// occupied by the drain.
type PAS struct {
	name string
	pred ReadPredictor
	q    list.List // of host.Item, arrival order
}

// NewPAS builds a PAS fed by SSDcheck's prediction engine.
func NewPAS(p *core.Predictor) *PAS {
	return &PAS{name: "pas", pred: SSDcheckPredictor{P: p}}
}

// NewIdealPAS builds the oracle-fed upper bound of Fig. 14.
func NewIdealPAS(oracle OracleFunc) *PAS {
	return &PAS{name: "ideal", pred: oracle}
}

// Name implements host.Scheduler.
func (p *PAS) Name() string { return p.name }

// Add implements host.Scheduler.
func (p *PAS) Add(it host.Item) { p.q.PushBack(it) }

// Len implements host.Scheduler.
func (p *PAS) Len() int { return p.q.Len() }

// OnComplete implements host.Scheduler: every completion feeds the
// latency monitor so the underlying model stays calibrated.
func (p *PAS) OnComplete(req blockdev.Request, dispatch, done simclock.Time) {
	p.pred.Observe(req, dispatch, done)
}

// Next implements host.Scheduler, following the paper's dispatch rule:
// if the queue is single-direction, FIFO; otherwise query the prediction
// for the oldest read and promote it when it is expected HL; in all
// other cases dispatch the oldest request.
func (p *PAS) Next(now simclock.Time) (host.Item, bool) {
	front := p.q.Front()
	if front == nil {
		return host.Item{}, false
	}

	var oldestRead *list.Element
	mixed := false
	pendingWritePages := 0
	firstOp := front.Value.(host.Item).Req.Op
	for e := p.q.Front(); e != nil; e = e.Next() {
		it := e.Value.(host.Item)
		if it.Barrier {
			// Strict ordering point: nothing behind it may be
			// promoted past it (paper §IV-B).
			break
		}
		if it.Req.Op != firstOp {
			mixed = true
		}
		if it.Req.Op == blockdev.Read {
			oldestRead = e
			break
		}
		pendingWritePages += (it.Req.Sectors + blockdev.SectorsPerPage - 1) / blockdev.SectorsPerPage
	}

	if mixed && oldestRead != nil &&
		p.pred.PredictHL(oldestRead.Value.(host.Item).Req, now, pendingWritePages) {
		it := oldestRead.Value.(host.Item)
		p.q.Remove(oldestRead)
		return it, true
	}
	p.q.Remove(front)
	return front.Value.(host.Item), true
}
