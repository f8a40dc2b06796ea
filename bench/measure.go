package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ---------------------------------------------------------------------------
// Order statistics

// median returns the middle value of xs (mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the estimator the acceptance check of this benchmark uses.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ---------------------------------------------------------------------------
// The quiet window

// quietPercentile is the percentile of window speed that stands for a
// run, whatever the number of windows. A run holds thousands of the 2 to
// 5 ms windows, so dozens of windows are faster still.
const quietPercentile = 99

// meanRate is the packet rate of the given windows taken together.
func meanRate(ws []window) float64 {
	var packets uint64
	var wall time.Duration
	for _, w := range ws {
		packets += w.packets
		wall += w.wall
	}
	return float64(packets) / wall.Seconds()
}

// timed sums the timed repetitions of a run and keeps the packet rate
// of every window.
//
// The shared runner's neighbours slow most windows down, at times to
// half speed and for milliseconds to minutes on end, so what a run's
// repetitions take, in wall or in CPU time, says more about the
// neighbours than about the code, while the windows they leave alone
// repeat to a few percent. Times are therefore divided by the host
// factor of the moment: how much slower than the run's quiet window
// the windows timed around that moment were. See README.md, "Why not
// the median".
type timed struct {
	wall, cpu time.Duration
	packets   uint64
	rates     []float64 // packets per second, one per window
	reps      []timedRep
}

// timedRep is one repetition: its wall time per packet and the rate of
// its windows taken together. The windows of an engine or netsim
// repetition tile it, so the two are reciprocal; a fleet session's
// windows cover only the part in which verdicts arrive.
type timedRep struct {
	perPacket float64 // seconds
	rate      float64
}

func (t *timed) add(s sample) {
	t.wall += s.wall
	t.cpu += s.cpu
	t.packets += s.packets
	for _, w := range s.windows {
		if w.packets > 0 {
			t.rates = append(t.rates, float64(w.packets)/w.wall.Seconds())
		}
	}
	// A repetition that broke before any window closed has no host
	// factor; it counts as failed operations, not as a speed.
	if len(s.windows) > 0 {
		t.reps = append(t.reps, timedRep{perPacket: s.wall.Seconds() / float64(s.packets), rate: meanRate(s.windows)})
	}
}

// quiet is the packet rate of the quiet window, the one at
// quietPercentile of speed.
func (t *timed) quiet() float64 { return percentile(t.rates, quietPercentile) }

// faster is how many windows were faster than the quiet window.
func (t *timed) faster() int {
	n, quiet := 0, t.quiet()
	for _, r := range t.rates {
		if r > quiet {
			n++
		}
	}
	return n
}

// hostFactor is how much slower than the quiet window the host ran
// while the given windows were timed.
func (t *timed) hostFactor(ws []window) float64 { return t.quiet() / meanRate(ws) }

// pps is packets per second on a quiet host: every repetition's wall
// time divided by the host factor of its own windows, and the median
// repetition. Where the windows tile the repetition that is the quiet
// window's rate exactly.
func (t *timed) pps() float64 {
	if len(t.reps) == 0 {
		return 0
	}
	quiet := t.quiet()
	perPacket := make([]float64, len(t.reps))
	for i, r := range t.reps {
		perPacket[i] = r.perPacket * r.rate / quiet
	}
	return 1 / median(perPacket)
}

// busy is how many cores the process kept busy while it was timed. The
// neighbours stretch CPU time and wall time alike, so their ratio holds
// still where either alone does not.
func (t *timed) busy() float64 { return t.cpu.Seconds() / t.wall.Seconds() }

// cpuPerPacket is the process's CPU time per packet on a quiet host:
// all timed CPU over all packets (rawCPUPerPacket), deflated by how
// much slower than pps the run as a whole went (rawPPS / pps). Every
// thread's CPU counts, in its share of the wall time.
func (t *timed) cpuPerPacket() float64 {
	pps := t.pps()
	if pps == 0 {
		return 0
	}
	return t.busy() / pps * 1e9
}

// rawPPS and rawCPUPerPacket are all timed work together, neighbours
// included.
func (t *timed) rawPPS() float64 { return float64(t.packets) / t.wall.Seconds() }

func (t *timed) rawCPUPerPacket() float64 { return float64(t.cpu.Nanoseconds()) / float64(t.packets) }

// ---------------------------------------------------------------------------
// Process accounting

// cpuTime is the process's user+system CPU time so far. Every thread
// counts, so garbage collection and the collector, sender and reader
// goroutines a workload starts are included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint32

// calibrate times a fixed pure-Go FNV-1a loop and returns ns per byte
// step. It is stamped into every output before and after the workload
// so a reader can tell a slower machine from slower code.
func calibrate() float64 {
	const steps = 1 << 25
	var buf [4096]byte
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	h := uint32(2166136261)
	t0 := time.Now()
	for r := 0; r < steps/len(buf); r++ {
		for _, b := range buf {
			h = (h ^ uint32(b)) * 16777619
		}
	}
	d := time.Since(t0)
	calibSink = h
	return float64(d.Nanoseconds()) / steps
}

// ---------------------------------------------------------------------------
// Prometheus text scrape

// promValues parses the Prometheus text exposition format into one
// value per series name, labels dropped and same-named series summed.
// Histograms therefore appear as their <name>_sum, <name>_count and
// (summed, so meaningless) <name>_bucket entries.
func promValues(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Spans

// span is one traced interval. Times are nanoseconds since the tracer
// started; Parent is the ID of the span that caused this one, -1 for a
// root; Items is how many packets, frames or digests it processed.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Items    int    `json:"items"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the stage ladder is single-threaded by design.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	// Room for a full run, so that the stages' allocation counts do not
	// include the tracer growing.
	return &tracer{t0: time.Now(), workload: workload, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, rep, items int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Items: items, Workload: t.workload, Rep: rep,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// add records an interval that was timed elsewhere.
func (t *tracer) add(name string, parent, rep, items int, start time.Time, dur time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Parent: parent, Items: items, Workload: t.workload, Rep: rep,
		Start: s, End: s + dur.Nanoseconds(),
	})
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
