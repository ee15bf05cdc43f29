// Command perfbench is the overlay's benchmark. It runs one named workload
// through the production configuration (default batching, a 64-packet
// credit window, exactly-once recovery, one shard per core) and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with nothing
// interposed. With -trace 1 the same run is repeated with timing wrappers
// around the transport links, the filters, Stream.Multicast and
// BackEnd.Send, and the metrics are the per-layer ones, each normalised
// per op, plus the tracing overhead. A human-readable summary goes to
// standard error.
//
// Usage:
//
//	perfbench -workload query-tcp -seed 1 -seconds 10 -trace 0 [-spans file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times each run sets the network up; setup_s is
// their median.
const setupReps = 21

// warmup runs before every measured window so pools fill and lazy set-up
// finishes.
const warmup = time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: query-tcp, stream-chan or reduce-wide-chan")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		spans   = flag.String("spans", "", "file the traced run writes its spans to")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	res, err := run(w, *seed, d, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// phase is one network's set-ups and measured window, with every counter
// read at the window's edges.
type phase struct {
	setups []setupTimes
	stats  *opStats
	cpuAt  []time.Duration // process CPU time at each slice edge
	before snapshot
	after  snapshot
	// coreBefore and core are Metrics().Snapshot() at the window's edges.
	coreBefore, core map[string]int64
	rssMiB           float64
	layers           [numSpanKinds]layerSnap // traced phases only
}

// runPhase sets the workload up setupReps times, keeps the last network,
// and measures it for d.
func runPhase(w workload, seed int64, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var inst instance
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		in, st, err := launch(w, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", w.name, i, err)
		}
		ph.setups = append(ph.setups, st)
		if i < setupReps-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()
	var trBefore [numSpanKinds]layerSnap
	ph.stats = inst.measure(warmup, d, func(i int) {
		snap := takeSnapshot()
		ph.cpuAt = append(ph.cpuAt, snap.cpu)
		switch i {
		case 0:
			ph.before = snap
			ph.coreBefore = inst.net().Metrics().Snapshot()
			if tr != nil {
				trBefore = tr.snap()
				tr.keep.Store(true)
			}
		case slices:
			ph.after = snap
			ph.core = inst.net().Metrics().Snapshot()
			if tr != nil {
				tr.keep.Store(false)
				for k, s := range tr.snap() {
					ph.layers[k] = s.minus(trBefore[k])
				}
			}
		}
	})
	ph.rssMiB = maxRSSMiB()
	return ph, nil
}

// run measures w for d. A traced run splits d between an untraced phase
// and a traced one, so that it lasts as long as an untraced run.
func run(w workload, seed int64, d time.Duration, traced bool, spansPath string) (*result, error) {
	if traced {
		d /= 2
	}
	plain, err := runPhase(w, seed, d, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.stats.attempted, Failed: plain.stats.failed}
	var tph *phase
	if traced {
		tr := newTracer()
		if tph, err = runPhase(w, seed, d, tr); err != nil {
			return nil, err
		}
		res.Attempted += tph.stats.attempted
		res.Failed += tph.stats.failed
		if spansPath != "" {
			if err := tr.writeSpans(spansPath); err != nil {
				return nil, err
			}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1 // a run that completed nothing still attempted
		res.Failed++
	}
	res.Correct = res.Failed == 0
	if traced {
		res.Metrics = perLayer(w, tph, plain)
	} else {
		res.Metrics = endToEnd(plain)
	}
	report(w, plain, tph, res)
	return res, nil
}

// endToEnd computes the metrics a user of the overlay sees. Rates,
// per-op CPU and latency percentiles are computed per slice of the window
// and reported as the median over slices; set-up time is the median over
// set-ups.
func endToEnd(ph *phase) map[string]metric {
	s := ph.stats
	var rate, cpu, p50, p99 []float64
	for i := 0; i < slices; i++ {
		rate = append(rate, float64(s.ops[i])/(s.edge(i+1)-s.edge(i)).Seconds())
		cpu = append(cpu, div(float64(ph.cpuAt[i+1]-ph.cpuAt[i])/1e3, float64(s.ops[i])))
		p50 = append(p50, percentile(s.lat[i], 0.50))
		p99 = append(p99, percentile(s.lat[i], 0.99))
	}
	setup := make([]float64, len(ph.setups))
	for i, st := range ph.setups {
		setup[i] = st.total().Seconds()
	}
	okFrac := 0.0
	if s.attempted > 0 {
		okFrac = 1 - float64(s.failed)/float64(s.attempted)
	}
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"ops_per_s":      {median(rate), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p99_ms": {median(p99), "ms"},
		"cpu_us_per_op":  {median(cpu), "us"},
		"ok_op_frac":     {okFrac, "ratio"},
		"max_rss_mib":    {ph.rssMiB, "MiB"},
	}
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// div is a / b, or 0 when b is 0 (a window with no ops, a layer with no
// calls).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report writes a human-readable summary to standard error, including the
// replay ring against the window on every run: the ring is documented as
// bounded by the window, and a run where it is not is flagged here.
func report(w workload, plain, traced *phase, res *result) {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s (GOMAXPROCS=%d): correct=%v attempted=%d failed=%d\n",
		w.name, runtime.GOMAXPROCS(0), res.Correct, res.Attempted, res.Failed)
	if e := plain.stats.firstErr; e != nil {
		fmt.Fprintf(&b, "  first failure: %v\n", e)
	}
	if traced != nil && traced.stats.firstErr != nil {
		fmt.Fprintf(&b, "  first failure (traced): %v\n", traced.stats.firstErr)
	}
	st := plain.stats
	fewest := len(st.lat[0])
	for _, l := range st.lat {
		fewest = min(fewest, len(l))
	}
	fmt.Fprintf(&b, "  latency samples: %d in the window, at least %d in each of %d slices\n",
		len(st.windowLat()), fewest, slices)
	busy := float64(plain.cpuAt[slices]-plain.cpuAt[0]) / float64(st.d) / float64(runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  CPU busy: %.3f of %d cores over the window\n", busy, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, ph := range []*phase{plain, traced} {
		if ph == nil {
			continue
		}
		ring := ph.core["replay_ring_high_water"]
		flag := ""
		if ring > linkWindow {
			flag = "  ** EXCEEDS THE WINDOW **"
		}
		fmt.Fprintf(&b, "  replay ring high water %d, window %d%s\n", ring, linkWindow, flag)
	}
	fmt.Fprint(os.Stderr, b.String())
}
