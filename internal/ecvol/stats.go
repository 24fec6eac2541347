package ecvol

// Stats is the volume's cumulative operation accounting. Field order
// matches the JSON wire form; map keys marshal sorted, so the encoded
// form is deterministic and byte-comparable across shard counts.
type Stats struct {
	// ID and Predictive echo the configuration for self-describing
	// reports.
	ID         string `json:"id"`
	Predictive bool   `json:"predictive"`

	// Reads and Writes count logical chunk operations accepted.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`

	// Serving-mode split: DirectReads hit the owning shard;
	// SteeredReads were reconstructed to dodge a predicted-HL or
	// storming owner; ReconstructReads had no serviceable owner (or
	// the direct attempt failed).
	DirectReads      int64 `json:"direct_reads"`
	SteeredReads     int64 `json:"steered_reads"`
	ReconstructReads int64 `json:"reconstruct_reads"`

	// DonorRetries counts reconstruct shard reads that failed and were
	// replaced from the donor ranking.
	DonorRetries int64 `json:"donor_retries"`

	// ParityFlushes counts flush batches by cause: inline (oblivious),
	// hl_window, deadline, budget, degraded_write, health, force.
	ParityFlushes map[string]int64 `json:"parity_flushes"`

	// FlushRetries counts flush batches that left a stripe staged
	// because a live parity shard refused the write.
	FlushRetries int64 `json:"flush_retries"`

	// DegradedWrites counts writes whose data shard write failed,
	// leaving the chunk served by reconstruction.
	DegradedWrites int64 `json:"degraded_writes"`

	// RedundancyLost counts stripes whose parity shards have all
	// fail-stopped: their data is intact but no longer protected.
	RedundancyLost int64 `json:"redundancy_lost"`

	// PendingParity is the currently staged stripe count;
	// MaxPendingObserved is the high-water mark, which the durability
	// budget bounds at Config.MaxPendingStripes.
	PendingParity      int `json:"pending_parity"`
	MaxPendingObserved int `json:"max_pending_observed"`

	// ReadErrors and WriteErrors count operations the volume could not
	// serve at all (beyond redundancy or manager shutdown).
	ReadErrors  int64 `json:"read_errors"`
	WriteErrors int64 `json:"write_errors"`
}

// Status returns a copy of the volume's statistics.
func (v *Volume) Status() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.stats
	s.PendingParity = len(v.pending)
	s.ParityFlushes = make(map[string]int64, len(v.stats.ParityFlushes))
	for k, n := range v.stats.ParityFlushes {
		s.ParityFlushes[k] = n
	}
	return s
}
