package metrics

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden scrape")

func buildRegistry() *Registry {
	r := NewRegistry()
	frames := r.Counter("hydra_ingest_frames_total", "Frames read from the capture source.", nil)
	frames.Add(12345)
	for _, w := range []string{"0", "1"} {
		c := r.Counter("hydra_ingest_packets_sent_total", "Packets fanned out to engine workers.", Labels{"worker": w})
		c.Add(500)
		c.Inc()
	}
	r.Counter("hydra_ingest_drops_total", "Packets dropped instead of sent.", Labels{"reason": "backpressure", "worker": "0"}).Add(3)
	g := r.Gauge("hydra_ingest_pps", "Smoothed packets per second over the last tick.", nil)
	g.Set(350_000.5)
	r.GaugeFunc("hydra_ingest_queue_depth", "Batches queued per worker sender.", Labels{"worker": "0"}, func() float64 { return 4 })
	h := r.Histogram("hydra_worker_batch_seconds", "Wall time checking one received batch.", []float64{0.001, 0.01, 0.1}, nil)
	for _, v := range []float64{0.0004, 0.002, 0.002, 0.05, 2} {
		h.Observe(v)
	}
	return r
}

// TestScrapeGolden pins the full text-format rendering, scraped over
// HTTP like Prometheus would.
func TestScrapeGolden(t *testing.T) {
	srv := httptest.NewServer(buildRegistry().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "scrape.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("scrape drifted from golden (run with -update to rewrite):\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 10}, nil)
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2`, // le is inclusive
		`h_bucket{le="10"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_sum 106.5`,
		`h_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	if h.n.Load() != 4 {
		t.Fatalf("Count = %d, want 4", h.n.Load())
	}
}

// TestConcurrentUpdates exercises the lock-free update paths under the
// race detector.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "h", nil)
	g := r.Gauge("g", "h", nil)
	h := r.Histogram("hist", "h", nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j) / 1000)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if h.n.Load() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.n.Load())
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "h", nil).Inc()
	addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("scrape = %q", body)
	}
}
