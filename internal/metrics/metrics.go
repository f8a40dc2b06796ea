// Package metrics is a dependency-free Prometheus text-format exporter
// for the verification fleet: counters, gauges, and cumulative
// histograms registered on a Registry and rendered at /metrics in the
// exposition format (text/plain; version=0.0.4). It deliberately
// implements only what the fleet daemons need — constant labels per
// series, lock-free hot-path updates, deterministic rendering — so the
// scrape output is stable enough to golden-test.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant labels attached to one series at registration.
type Labels map[string]string

// DefBuckets is the default latency histogram layout: exponential from
// 1µs to ~10s, the span between a batch dispatch and a stalled peer.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Registry holds registered series and renders them.
type Registry struct {
	mu     sync.Mutex
	series []*series
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

type series struct {
	name   string
	help   string
	kind   kind
	labels string // pre-rendered {k="v",...} or ""

	c *Counter
	g *Gauge
	h *Histogram
	// fn, when set, is a gauge sampled at scrape time.
	fn func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) add(s *series) {
	r.mu.Lock()
	r.series = append(r.series, s)
	r.mu.Unlock()
}

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.add(&series{name: name, help: help, kind: kindCounter, labels: renderLabels(labels), c: c})
	return c
}

// Gauge is a series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.add(&series{name: name, help: help, kind: kindGauge, labels: renderLabels(labels), g: g})
	return g
}

// GaugeFunc registers a gauge whose value is sampled at scrape time —
// the idiom for queue depths and other state owned elsewhere.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(&series{name: name, help: help, kind: kindGauge, labels: renderLabels(labels), fn: fn})
}

// Histogram is a cumulative-bucket histogram (Prometheus layout:
// per-bucket `le` counts plus _sum and _count).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf at the end
	sum    atomic.Uint64   // float64 bits, CAS-updated
	n      atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Sum reads the total of the samples observed.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Histogram registers a histogram series with the given bucket upper
// bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	h := &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
	r.add(&series{name: name, help: help, kind: kindHistogram, labels: renderLabels(labels), h: h})
	return h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the text
// exposition format. Series are grouped by name (one HELP/TYPE block
// per name) and ordered by name, then label string — deterministic for
// a fixed registration set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ss := append([]*series(nil), r.series...)
	r.mu.Unlock()
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].name != ss[j].name {
			return ss[i].name < ss[j].name
		}
		return ss[i].labels < ss[j].labels
	})
	var b strings.Builder
	prev := ""
	for _, s := range ss {
		if s.name != prev {
			typ := "counter"
			switch s.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, typ)
			prev = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, s.labels, s.c.Value())
		case kindGauge:
			v := 0.0
			if s.fn != nil {
				v = s.fn()
			} else {
				v = s.g.Value()
			}
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(v))
		case kindHistogram:
			writeHistogram(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, s *series) {
	h := s.h
	// Render bucket labels by splicing le into the constant label set.
	open := "{"
	if s.labels != "" {
		open = s.labels[:len(s.labels)-1] + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", s.name, open, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", s.name, open, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", s.name, s.labels, formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", s.name, s.labels, h.n.Load())
}

// Handler serves the registry at any path — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Serve starts an HTTP server for the registry on addr (host:port,
// :0 for ephemeral) and returns the bound address. The server runs
// until the process exits; errors after bind are dropped (metrics are
// best-effort observability, never a reason to kill a daemon).
func (r *Registry) Serve(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	srv := &http.Server{Handler: mux}
	ln, err := newListener(addr)
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
