package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms and renders
// them in a Prometheus-style text exposition format (the body of
// hared's /metrics endpoint).
//
// Metric names are snake_case with an optional `{label="value"}`
// suffix; series sharing the name before the brace form one family
// and get a single `# TYPE` header. A nil *Registry hands out nil
// collectors, whose methods are all no-ops, so instrumented code
// never branches on "is metrics on".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. Safe on
// a nil receiver, which returns a nil no-op counter.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ga, ok := g.gauges[name]
	if !ok {
		ga = &Gauge{}
		g.gauges[name] = ga
	}
	return ga
}

// Histogram returns (creating on first use) the named histogram with
// the given upper bucket bounds (ascending; a +Inf bucket is implied).
// Bounds are fixed by the first call.
func (g *Registry) Histogram(name string, bounds []float64) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[name]
	if !ok {
		h = newHistogram(bounds)
		g.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing float64. The zero value is
// ready; a nil *Counter ignores Add.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets, tracking sum
// and count — enough for quantile estimates and rate math downstream.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implied
	counts []uint64  // len(bounds)+1, non-cumulative per bucket
	sum    float64
	count  uint64
}

// DefSecondsBuckets is a general-purpose latency bucketing: 1 ms to
// ~17 min in powers of four.
var DefSecondsBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536, 262.144, 1048.576}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// family strips an optional {label} suffix off a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitLabels splits a series name into its family and the braced
// label suffix ("" when unlabeled).
func splitLabels(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// labeled splices extra label text into a series name, before the
// closing brace when the name already carries labels.
func labeled(name, kv string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + kv + "}"
	}
	return name + "{" + kv + "}"
}

// WriteText renders every metric in the text exposition format,
// family-sorted so scrapes are diffable:
//
//	# TYPE hare_sim_tasks_total counter
//	hare_sim_tasks_total 128
func (g *Registry) WriteText(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	type series struct {
		name, typ string
		render    func(io.Writer, string) error
	}
	var all []series
	//lint:ordered series are sorted by name before rendering
	for name, c := range g.counters {
		v := c.Value()
		all = append(all, series{name, "counter", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %s\n", n, formatValue(v))
			return err
		}})
	}
	//lint:ordered series are sorted by name before rendering
	for name, ga := range g.gauges {
		v := ga.Value()
		all = append(all, series{name, "gauge", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %s\n", n, formatValue(v))
			return err
		}})
	}
	//lint:ordered series are sorted by name before rendering
	for name, h := range g.hists {
		h.mu.Lock()
		bounds := append([]float64(nil), h.bounds...)
		counts := append([]uint64(nil), h.counts...)
		sum, count := h.sum, h.count
		h.mu.Unlock()
		all = append(all, series{name, "histogram", func(w io.Writer, n string) error {
			// A labeled histogram name ("hare_x_seconds{phase=\"p\"}")
			// keeps its labels on every derived series, with the
			// _bucket/_sum/_count suffix on the family name as the
			// exposition format requires.
			fam, labels := splitLabels(n)
			cum := uint64(0)
			for i, b := range bounds {
				cum += counts[i]
				if _, err := fmt.Fprintf(w, "%s %d\n", labeled(fam+"_bucket"+labels, fmt.Sprintf("le=%q", formatValue(b))), cum); err != nil {
					return err
				}
			}
			cum += counts[len(bounds)]
			if _, err := fmt.Fprintf(w, "%s %d\n", labeled(fam+"_bucket"+labels, `le="+Inf"`), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, formatValue(sum)); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, count)
			return err
		}})
	}
	g.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	lastFamily := ""
	for _, s := range all {
		if f := family(s.name); f != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, s.typ); err != nil {
				return err
			}
			lastFamily = f
		}
		if err := s.render(w, s.name); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders a float without superfluous exponent noise.
func formatValue(v float64) string {
	//lint:allow floateq integral-value rendering check is exact by design
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
