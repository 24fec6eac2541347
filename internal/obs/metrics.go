package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter, or a view of
// a count kept elsewhere when registered with Registry.CounterFunc:
// such a counter reports what its function returns, and Inc and Add do
// not change that.
type Counter struct {
	v  atomic.Int64
	fn func() int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is an instantaneous value read from its owner whenever the
// series is rendered or Value is called (see Registry.GaugeFunc). A
// handle taken with Registry.Gauge before GaugeFunc registered its key
// reads 0.
type Gauge struct{ fn func() int64 }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g.fn == nil {
		return 0
	}
	return g.fn()
}

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// metric is one registered series.
type metric struct {
	labels    string  // rendered {k="v",...}, "" when unlabeled
	labelList []Label // the pairs behind the rendered form, sorted by name
	counter   *Counter
	gauge     *Gauge
	// hist is a stored histogram, nil for a HistogramFunc series;
	// snap reads either kind (hist.Snapshot or the registered function).
	hist *Histogram
	snap func() HistogramSnapshot
	// scale divides histogram nanosecond bounds on exposition so
	// latency histograms follow the Prometheus seconds convention.
	scale float64
}

// family is all series sharing one metric name.
type family struct {
	name, help, typ string
	series          map[string]*metric
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Lookup (Counter/Gauge/Histogram) takes a mutex
// and should happen at setup time; the returned handles are lock-free
// atomics for the hot path. A series registered through CounterFunc,
// GaugeFunc or HistogramFunc stores nothing: it reads its owner's
// state each time it is rendered, so a value kept under the owner's
// lock is never copied into the registry. The zero Registry is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// sortedLabels returns a copy of labels sorted by name — the canonical
// order every rendered series uses.
func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// renderLabels builds the deterministic {k="v"} suffix (sorted by
// label name, values escaped).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating if needed) the series for name+labels,
// checking the family's type stays consistent. scale only applies to
// histograms: it divides the stored nanosecond bounds on exposition.
// A non-nil val (counter, gauge) or snap (histogram) registers a
// read-at-render series, replacing any series already under the key;
// the function is set under r.mu, so a renderer never sees it change.
func (r *Registry) lookup(name, help, typ string, scale float64, labels []Label, val func() int64, snap func() HistogramSnapshot) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	m := f.series[key]
	if m == nil || val != nil || snap != nil {
		m = &metric{labels: key, labelList: sortedLabels(labels)}
		switch typ {
		case "counter":
			m.counter = &Counter{fn: val}
		case "gauge":
			m.gauge = &Gauge{fn: val}
		case "histogram":
			if m.snap = snap; snap == nil {
				m.hist = &Histogram{}
				m.snap = m.hist.Snapshot
			}
			m.scale = scale
		}
		f.series[key] = m
	}
	return m
}

// Counter returns the counter for name+labels, registering it on first
// use. Calling again with the same name and labels returns the same
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, "counter", 0, labels, nil, nil).counter
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, "gauge", 0, labels, nil, nil).gauge
}

// Locked returns v wrapped to run under l: the usual shape of a
// read-at-render series over state its owner guards with a mutex.
func Locked[T any](l sync.Locker, v func() T) func() T {
	return func() T {
		l.Lock()
		defer l.Unlock()
		return v()
	}
}

// CounterFunc registers name+labels as a counter whose value fn
// returns each time the series is read: rendered, or looked up through
// Counter and read with Value. Renderers call fn only after releasing
// the registry's lock, so fn may take a lock its owner holds while
// registering series. Registering the key again replaces the series.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.lookup(name, help, "counter", 0, labels, fn, nil)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.lookup(name, help, "gauge", 0, labels, fn, nil)
}

// HistogramFunc is CounterFunc for a latency histogram: fn returns the
// observations so far, in nanoseconds, and exposition follows the
// Prometheus seconds convention as for Histogram.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot, labels ...Label) {
	r.lookup(name, help, "histogram", 1e9, labels, nil, fn)
}

// Histogram returns the latency histogram for name+labels, registering
// it on first use. Observations are nanoseconds internally; exposition
// follows the Prometheus convention of seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, "histogram", 1e9, labels, nil, nil).histogram()
}

// HistogramScaled is Histogram with an explicit exposition scale: the
// stored nanosecond bounds are divided by scale when rendered. The
// fleet's ingress wait histogram uses 1e3 so its buckets read as
// microseconds — the natural unit for sub-millisecond queueing — while
// plain latency histograms keep the Prometheus seconds convention via
// Histogram's 1e9. The scale is fixed at first registration.
func (r *Registry) HistogramScaled(name, help string, scale float64, labels ...Label) *Histogram {
	if scale <= 0 {
		scale = 1e9
	}
	return r.lookup(name, help, "histogram", scale, labels, nil, nil).histogram()
}

// histogram returns a histogram series' handle: the stored histogram,
// or for a HistogramFunc series a view whose Snapshot reads the
// function. The view is built on lookup so the series itself carries no
// bucket array.
func (m *metric) histogram() *Histogram {
	if m.hist == nil {
		return &Histogram{fn: m.snap}
	}
	return m.hist
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4). Families appear in
// registration order and series in sorted label order, so the output
// layout is deterministic. Histograms emit only buckets that contain
// observations (plus +Inf), which is valid exposition and keeps a
// ~500-bucket histogram readable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheusMerged(w, "", []RegistrySource{{Reg: r}})
}

// writeHistogram renders one histogram series: cumulative buckets with
// seconds-unit le bounds, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, snap HistogramSnapshot, scale float64) {
	// Re-render labels with le appended; labels is "" or "{...}".
	bucketLabels := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := bucketBounds(i)
		le := strconv.FormatFloat(float64(hi)/scale, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), snap.Count)
	sum := strconv.FormatFloat(float64(snap.Sum)/scale, 'g', -1, 64)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, snap.Count)
}

// DropSeries removes every registered series that carries the given
// label pair, across all families. The fleet calls it when a device is
// detached (it moves to another manager — and typically another
// registry — taking its cumulative state along), so a registry never
// keeps reporting stale series for members it no longer owns. Families
// left without series stay registered and render as headers only,
// which is valid exposition.
func (r *Registry) DropSeries(l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		for key, m := range f.series {
			for _, ml := range m.labelList {
				if ml == l {
					delete(f.series, key)
					break
				}
			}
		}
	}
}

// RegistrySource names one registry inside a merged exposition: Name
// becomes the injected label's value for every series the registry
// contributes. An empty Name contributes its series unmodified — the
// slot a cluster coordinator uses for its own (already fully labeled)
// metrics.
type RegistrySource struct {
	Name string
	Reg  *Registry
}

// WritePrometheusMerged renders several registries as one Prometheus
// exposition, tagging every series with labelName="<source name>" —
// the cluster daemon's federated /metrics view over its per-node
// registries. Families keep first-seen registration order across the
// sources (sources are visited in the given order), series within a
// family sort by their rendered labels, and histograms render through
// the same path as single-registry exposition, so the merged output is
// deterministic whenever the underlying metrics are.
func WritePrometheusMerged(w io.Writer, labelName string, sources []RegistrySource) error {
	type flatSeries struct {
		labels string
		m      *metric
	}
	type flatFamily struct {
		name, help, typ string
		series          []flatSeries
	}
	var fams []flatFamily
	index := make(map[string]int)

	// Series are collected under each registry's lock and read only
	// after it is released: a read-at-render series takes its owner's
	// lock, which the owner may hold while registering.
	for _, src := range sources {
		if src.Reg == nil {
			continue
		}
		src.Reg.mu.Lock()
		for _, name := range src.Reg.order {
			f := src.Reg.families[name]
			i, ok := index[name]
			if !ok {
				i = len(fams)
				index[name] = i
				fams = append(fams, flatFamily{name: f.name, help: f.help, typ: f.typ})
			} else if fams[i].typ != f.typ {
				src.Reg.mu.Unlock()
				return fmt.Errorf("obs: metric %q is a %s in one source and a %s in another", name, fams[i].typ, f.typ)
			}
			for _, m := range f.series {
				rendered := m.labels
				if src.Name != "" {
					rendered = renderLabels(append(append([]Label(nil), m.labelList...), Label{Name: labelName, Value: src.Name}))
				}
				fams[i].series = append(fams[i].series, flatSeries{labels: rendered, m: m})
			}
		}
		src.Reg.mu.Unlock()
	}

	bw := &errWriter{w: w}
	for _, f := range fams {
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case "counter":
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.m.counter.Value())
			case "gauge":
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.m.gauge.Value())
			case "histogram":
				writeHistogram(bw, f.name, s.labels, s.m.snap(), s.m.scale)
			}
		}
	}
	return bw.err
}

// errWriter remembers the first write error so the exposition loop can
// stay unconditional.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}
