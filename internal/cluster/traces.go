package cluster

import "ssdcheck/internal/obs"

// Traces returns the merged cross-node trace view: every member's
// sampled request traces, each stamped with the node that served it,
// concatenated in membership order (each node's ring already yields
// device-then-seq order). Remote members and nodes without tracers
// contribute nothing — their traces live in their own process.
func (c *Coordinator) Traces() []obs.RequestTrace {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		nodes = append(nodes, c.members[id].node)
	}
	c.mu.Unlock()

	var out []obs.RequestTrace
	for _, n := range nodes {
		tr := n.Tracer()
		if tr == nil {
			continue
		}
		for _, rt := range tr.Traces() {
			rt.Node = n.ID()
			out = append(out, rt)
		}
	}
	return out
}
