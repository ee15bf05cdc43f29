package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/transport"
)

// lockstepOps is how many ops the fidelity test runs per workload, one at a
// time, so that batching and credit traffic depend on the code path alone
// and not on timing.
const lockstepOps = 40

// encodeSlack is how many wire encodes in lockstepOps ops the two runs may
// differ by. Untraced TCP runs alone differ by up to one now and then: some
// packet is occasionally serialised a second time, depending on timing
// inside the overlay.
const encodeSlack = 2

// counts are the per-op figures the traced and untraced runs must share.
type counts struct {
	results     []string
	framesPerOp float64
	// encodesPerOp leaves out credit grants (one encode each on TCP; none
	// on chan, which encodes nothing): a
	// grant leaves when a pipeline goes idle, so how many there are varies
	// between untraced runs too, by a few per hundred ops.
	encodesPerOp   float64
	transformPerOp float64 // core's batch count; the traced run also checks its wrapper's count against it
}

// settle lets the credit grants and acknowledgements that trail an op
// flush before the next op starts (they leave on the egress age bound), so
// they never share a frame with it by chance.
func settle() { time.Sleep(3 * core.DefaultBatchDelay) }

// lockstep runs lockstepOps ops of w one after another on a fresh network.
func lockstep(t *testing.T, w workload, tr *tracer) counts {
	t.Helper()
	inst, _, err := launch(w, 7, tr)
	if err != nil {
		t.Fatalf("%s: launch: %v", w.name, err)
	}
	defer inst.close()
	m := inst.net().Metrics()
	frames0, batches0, enc0 := m.FramesSent.Load(), m.Batches.Load(), packet.WireEncodes()
	grants0 := m.CreditGrants.Load()
	var calls0 int64
	if tr != nil {
		calls0 = tr.layers[spanTransform].calls.Load()
	}
	var c counts
	s := newOpStats(0, 0, 0)
	switch in := inst.(type) {
	case *waveInstance:
		for i := 0; i < lockstepOps; i++ {
			if err := in.issue(); err != nil {
				t.Fatalf("%s: issue: %v", w.name, err)
			}
			p := in.complete(s)
			if p == nil {
				t.Fatalf("%s: %v", w.name, s.firstErr)
			}
			xs, _ := p.FloatArray(0)
			c.results = append(c.results, fmt.Sprint(p.Tag, xs))
			settle()
		}
	case *streamInstance:
		for i := 0; i < lockstepOps; i++ {
			origin := in.ranks[i%len(in.ranks)]
			if err := in.send(origin, int64(i)); err != nil {
				t.Fatalf("%s: send: %v", w.name, err)
			}
			p, err := in.st.RecvTimeout(opTimeout)
			if err != nil {
				t.Fatalf("%s: receive: %v", w.name, err)
			}
			if _, _, err := in.accept(p); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			c.results = append(c.results, fmt.Sprint(p.Values()...))
			settle()
		}
	}
	n := float64(lockstepOps)
	c.framesPerOp = float64(m.FramesSent.Load()-frames0) / n
	encodes := packet.WireEncodes() - enc0
	if w.transport == core.TCPTransport {
		encodes -= m.CreditGrants.Load() - grants0
	}
	c.encodesPerOp = float64(encodes) / n
	c.transformPerOp = float64(m.Batches.Load()-batches0) / n
	if tr != nil {
		if got := float64(tr.layers[spanTransform].calls.Load()-calls0) / n; got != c.transformPerOp {
			t.Errorf("%s: traced transform calls per op %v, core counted %v batches per op", w.name, got, c.transformPerOp)
		}
	}
	return c
}

// TestTracingKeepsCodePaths checks, for each workload, that the traced run
// gives the same results and the same frame and transform counts as the
// untraced one, and encode counts within encodeSlack: the wrappers must not
// change what they measure.
func TestTracingKeepsCodePaths(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := lockstep(t, w, nil)
			traced := lockstep(t, w, newTracer())
			if !reflect.DeepEqual(plain.results, traced.results) {
				t.Errorf("results differ:\nuntraced %v\ntraced   %v", plain.results, traced.results)
			}
			if plain.framesPerOp != traced.framesPerOp {
				t.Errorf("frames per op: untraced %v, traced %v", plain.framesPerOp, traced.framesPerOp)
			}
			if d := math.Abs(plain.encodesPerOp-traced.encodesPerOp) * lockstepOps; d > encodeSlack {
				t.Errorf("wire encodes per op, grants excluded: untraced %v, traced %v", plain.encodesPerOp, traced.encodesPerOp)
			}
			if plain.transformPerOp != traced.transformPerOp {
				t.Errorf("transform calls per op: untraced %v, traced %v", plain.transformPerOp, traced.transformPerOp)
			}
			t.Logf("frames/op %v, wire encodes/op (grants excluded) %v, transform calls/op %v",
				plain.framesPerOp, plain.encodesPerOp, plain.transformPerOp)
		})
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names exactly
// the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	ph := &phase{stats: newOpStats(0, time.Second, 0), setups: []setupTimes{{}}, cpuAt: make([]time.Duration, slices+1)}
	e2e := endToEnd(ph)
	var got, wantE2E []string
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for n, m := range e2e {
		wantE2E = append(wantE2E, n+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(wantE2E)
	if !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", got, wantE2E)
	}
	got, wantE2E = nil, nil
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayerMetrics {
		wantE2E = append(wantE2E, m.name+" "+m.unit+" "+m.better)
	}
	if !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("per_layer: BENCHMARK.json %v\nprogram %v", got, wantE2E)
	}
}

// TestWrappersForwardOptionalInterfaces checks that each wrapper offers an
// optional interface exactly when core would find it, or a fallback, on
// the bare link or filter.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	a, b := transport.NewPair(0)
	defer a.Close()
	defer b.Close()
	var l transport.Link = &timedLink{inner: a, t: tr}
	if _, ok := l.(transport.BatchLink); !ok {
		t.Error("timed link is not a BatchLink")
	}
	if _, ok := l.(transport.Dropper); !ok {
		t.Error("timed link is not a Dropper")
	}
	if got, want := transport.BatchCopies(l), transport.BatchCopies(a); got != want {
		t.Errorf("BatchCopies: timed %v, bare %v", got, want)
	}

	reg, base := tracedRegistry(tr), filter.NewRegistry()
	for _, name := range base.Transformations() {
		bare, _ := base.NewTransformation(name)
		wrapped, err := reg.NewTransformation(name)
		if err != nil {
			t.Fatal(err)
		}
		_, bareSt := bare.(filter.StatefulTransformation)
		_, wrapSt := wrapped.(filter.StatefulTransformation)
		if bareSt != wrapSt {
			t.Errorf("transformation %q: StatefulTransformation bare %v, wrapped %v", name, bareSt, wrapSt)
		}
	}
	for _, name := range base.Synchronizers() {
		bare, _ := base.NewSynchronizer(name)
		wrapped, err := reg.NewSynchronizer(name)
		if err != nil {
			t.Fatal(err)
		}
		_, bareRe := bare.(filter.SlotRemapper)
		_, wrapRe := wrapped.(filter.SlotRemapper)
		if bareRe != wrapRe {
			t.Errorf("synchronizer %q: SlotRemapper bare %v, wrapped %v", name, bareRe, wrapRe)
		}
		if _, ok := bare.(filter.Drainer); !ok {
			if out := wrapped.(filter.Drainer).Drain(); out != nil {
				t.Errorf("synchronizer %q: wrapper drained %v from a filter that cannot drain", name, out)
			}
		}
	}
}
