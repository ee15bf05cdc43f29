package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topology"
)

// opTimeout bounds how long any single op may take before it counts as
// failed; it is far above every latency the workloads show.
const opTimeout = 10 * time.Second

// workload names one benchmark input: its shape is fixed here, its data
// comes from the seed.
type workload struct {
	name      string
	topo      string
	transport core.TransportKind
	// inflight is the number of waves kept in flight (closed loop); 0 for
	// the open-loop stream.
	inflight int
	// rate is the offered sample rate per second (open loop only).
	rate int
	// recordLen is the float count of each back-end's reply (waves only).
	recordLen int
	// wavesCarryID sums the wave id into every reply element, so each
	// result proves which wave it reduces.
	wavesCarryID bool
}

var workloads = []workload{
	{name: "query-tcp", topo: "kary:8^2", transport: core.TCPTransport, inflight: 4, recordLen: 32, wavesCarryID: true},
	{name: "stream-chan", topo: "kary:16^2", transport: core.ChanTransport, rate: 50000},
	{name: "reduce-wide-chan", topo: "kary:16^2", transport: core.ChanTransport, inflight: 24, recordLen: 2048},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// productionConfig is the configuration every workload runs through:
// default batching, a 64-packet credit window, live recovery with
// exactly-once delivery, one pipeline shard per core, and no heartbeat or
// load-report traffic.
func productionConfig(tree *topology.Tree, kind core.TransportKind, tr *tracer) core.Config {
	cfg := core.Config{
		Topology:    tree,
		Transport:   kind,
		Batch:       core.DefaultBatchPolicy(),
		LinkWindow:  linkWindow,
		Recoverable: true,
		ExactlyOnce: true,
		Shards:      0,
	}
	if tr != nil {
		cfg.WrapFabric = wrapFabric(tr, kind == core.TCPTransport)
		cfg.Registry = tracedRegistry(tr)
	}
	return cfg
}

const linkWindow = 64

// setupTimes splits one set-up into the calls that make it.
type setupTimes struct {
	newNetwork, newStream, firstOp time.Duration
}

func (s setupTimes) total() time.Duration { return s.newNetwork + s.newStream + s.firstOp }

// slices is how many equal parts a measured window is cut into; each
// end-to-end timing is the median of its per-slice values, so one stall
// on a shared host moves one slice, not the run.
const slices = 10

// opStats is what a measured run produced. Times are offsets from the
// run's epoch; the window is the last d of warm + d, cut into slices.
type opStats struct {
	warm, d time.Duration
	// ops counts, per slice, the checked ops that completed in it.
	ops [slices]int64
	// lat holds, per slice, the latency in ms of every checked op placed
	// in it: at its completion (waves) or at its due time (samples).
	lat [slices][]float32
	// lagMs is the generator lag of every sample due in the window.
	lagMs []float32
	// attempted counts the ops the window owed: waves completed in it or
	// failed, or samples due in it.
	attempted int64
	// failed counts wrong, missing, duplicated, misordered and timed-out
	// ops over the whole run, warm-up and drain included.
	failed   int64
	firstErr error
}

// newOpStats sizes the latency buffers for perSlice ops, so recording
// does not grow them while the window is measured.
func newOpStats(warm, d time.Duration, perSlice int) *opStats {
	s := &opStats{warm: warm, d: d}
	for i := range s.lat {
		s.lat[i] = make([]float32, 0, perSlice)
	}
	return s
}

// slice returns the slice of the window t falls in, or -1.
func (s *opStats) slice(t time.Duration) int {
	if t < s.warm || t >= s.warm+s.d {
		return -1
	}
	return int((t - s.warm) * slices / s.d)
}

// edge returns the start of slice i (i = slices is the window's end).
func (s *opStats) edge(i int) time.Duration { return s.warm + s.d*time.Duration(i)/slices }

// record notes a checked op completed at done whose latency, placed at
// at, was ms.
func (s *opStats) record(done, at time.Duration, ms float64) {
	if i := s.slice(done); i >= 0 {
		s.ops[i]++
	}
	if i := s.slice(at); i >= 0 {
		s.lat[i] = append(s.lat[i], float32(ms))
	}
}

func (s *opStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// windowOps counts the checked ops completed in the window.
func (s *opStats) windowOps() int64 {
	var n int64
	for _, k := range s.ops {
		n += k
	}
	return n
}

// windowLat returns every latency placed in the window.
func (s *opStats) windowLat() []float32 {
	var xs []float32
	for _, l := range s.lat {
		xs = append(xs, l...)
	}
	return xs
}

// markWindow calls mark(i) at each slice edge of s's window, from its own
// goroutine so the edges are on schedule whatever the load is doing. The
// returned channel closes after the last edge.
func markWindow(epoch time.Time, s *opStats, mark func(i int)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= slices; i++ {
			time.Sleep(time.Until(epoch.Add(s.edge(i))))
			mark(i)
		}
	}()
	return done
}

// instance is one running network of a workload.
type instance interface {
	net() *core.Network
	// measure drives load for warm + d, calls mark at each slice edge of
	// the last d, then lets every op still in flight finish and checks it.
	measure(warm, d time.Duration, mark func(i int)) *opStats
	close()
}

// launch builds a network for w, opens its stream and completes the first
// op, timing each step.
func launch(w workload, seed int64, tr *tracer) (instance, setupTimes, error) {
	tree, err := topology.ParseSpec(w.topo)
	if err != nil {
		return nil, setupTimes{}, err
	}
	if w.rate > 0 {
		return launchStream(w, seed, tree, tr)
	}
	return launchWaves(w, seed, tree, tr)
}

// --- closed-loop query/reduce waves ---

type waveInstance struct {
	w      workload
	nw     *core.Network
	st     *core.Stream
	tr     *tracer
	leaves int
	base   []float64 // each back-end's record before the wave id is added
	// outstanding holds the issue time of each wave in flight, oldest
	// first; waves complete in issue order on one FIFO stream.
	outstanding []waveIssue
	nextWave    int64
	epoch       time.Time // op times are offsets from it
}

type waveIssue struct {
	wave int64
	at   time.Time
}

// waveRecord builds the seed's record: small integer-valued floats, so
// every sum the tree computes is exact.
func waveRecord(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rec := make([]float64, n)
	for i := range rec {
		rec[i] = float64(rng.Intn(2001) - 1000)
	}
	return rec
}

func launchWaves(w workload, seed int64, tree *topology.Tree, tr *tracer) (instance, setupTimes, error) {
	base := waveRecord(seed, w.recordLen)
	cfg := productionConfig(tree, w.transport, tr)
	cfg.OnBackEnd = func(be *core.BackEnd) error {
		for {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			wave, err := p.Int(0)
			if err != nil {
				return fmt.Errorf("back-end %d: request: %w", be.Rank(), err)
			}
			rec := base // shared and never written: the reduce-wide payload
			if w.wavesCarryID {
				rec = make([]float64, len(base))
				for i, v := range base {
					rec[i] = v + float64(wave)
				}
			}
			if err := reply(be, tr, wave, p, rec); err != nil {
				return fmt.Errorf("back-end %d: reply: %w", be.Rank(), err)
			}
		}
	}
	var st setupTimes
	t0 := time.Now()
	nw, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	s, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		nw.Shutdown()
		return nil, st, err
	}
	t2 := time.Now()
	inst := &waveInstance{w: w, nw: nw, st: s, tr: tr, leaves: len(tree.Leaves()), base: base}
	first := newOpStats(0, 0, 0)
	inst.epoch = time.Now()
	if err := inst.issue(); err == nil {
		inst.complete(first)
	} else {
		first.fail(err)
	}
	if first.failed > 0 {
		inst.close()
		return nil, st, fmt.Errorf("first op: %w", first.firstErr)
	}
	t3 := time.Now()
	st = setupTimes{newNetwork: t1.Sub(t0), newStream: t2.Sub(t1), firstOp: t3.Sub(t2)}
	return inst, st, nil
}

// reply sends a back-end's record for one wave, timed when traced.
func reply(be *core.BackEnd, tr *tracer, wave int64, req *packet.Packet, rec []float64) error {
	if tr == nil {
		return be.Send(req.StreamID, req.Tag, "%af", rec)
	}
	start := tr.begin()
	err := be.Send(req.StreamID, req.Tag, "%af", rec)
	tr.end(spanBESend, wave, start)
	return err
}

func (in *waveInstance) net() *core.Network { return in.nw }
func (in *waveInstance) close()             { in.nw.Shutdown() }

func (in *waveInstance) issue() error {
	wave := in.nextWave
	in.nextWave++
	tag := packet.TagFirstApplication + int32(wave)
	in.outstanding = append(in.outstanding, waveIssue{wave: wave, at: time.Now()})
	if in.tr == nil {
		return in.st.Multicast(tag, "%d", wave)
	}
	start := in.tr.begin()
	err := in.st.Multicast(tag, "%d", wave)
	in.tr.end(spanMulticast, wave, start)
	return err
}

// complete receives the oldest outstanding wave and checks it. It
// returns the checked result, or nil after a failure.
func (in *waveInstance) complete(s *opStats) *packet.Packet {
	want := in.outstanding[0]
	in.outstanding = in.outstanding[1:]
	p, err := in.st.RecvTimeout(opTimeout)
	if err != nil {
		s.fail(fmt.Errorf("wave %d: %w", want.wave, err))
		return nil
	}
	now := time.Now()
	if err := in.check(want.wave, p); err != nil {
		s.fail(err)
		return nil
	}
	at := now.Sub(in.epoch)
	s.record(at, at, float64(now.Sub(want.at))/1e6)
	return p
}

// check verifies a reduced result: the sum over all back-ends of the
// record, plus the wave id times the back-end count when it is summed in.
func (in *waveInstance) check(wave int64, p *packet.Packet) error {
	if got := int64(p.Tag - packet.TagFirstApplication); got != wave {
		return fmt.Errorf("wave %d: result carries wave %d (lost, duplicated or misordered)", wave, got)
	}
	xs, err := p.FloatArray(0)
	if err != nil {
		return fmt.Errorf("wave %d: %w", wave, err)
	}
	if len(xs) != len(in.base) {
		return fmt.Errorf("wave %d: %d values, want %d", wave, len(xs), len(in.base))
	}
	n := float64(in.leaves)
	for i, v := range in.base {
		want := n * v
		if in.w.wavesCarryID {
			want += n * float64(wave)
		}
		if xs[i] != want {
			return fmt.Errorf("wave %d: value %d is %v, want %v", wave, i, xs[i], want)
		}
	}
	return nil
}

func (in *waveInstance) measure(warm, d time.Duration, mark func(i int)) *opStats {
	// Room for 2000 waves/s: far above any closed loop here.
	s := newOpStats(warm, d, int(2000*d.Seconds())/slices)
	in.epoch = time.Now()
	marks := markWindow(in.epoch, s, mark)
	until := in.epoch.Add(warm + d)
	// Keep inflight waves outstanding: each completed wave is replaced by
	// a new one. After a failure the rest of the run is lost; otherwise
	// the waves still in flight at the end finish and are checked.
	ok := true
	for ok && len(in.outstanding) < in.w.inflight {
		if err := in.issue(); err != nil {
			s.fail(err)
			ok = false
		}
	}
	for ok && time.Now().Before(until) {
		if ok = in.complete(s) != nil; ok {
			if err := in.issue(); err != nil {
				s.fail(err)
				ok = false
			}
		}
	}
	for ok && len(in.outstanding) > 0 {
		ok = in.complete(s) != nil
	}
	<-marks
	s.attempted = s.windowOps() + s.failed
	return s
}

// --- open-loop upstream stream ---

type streamInstance struct {
	w      workload
	nw     *core.Network
	st     *core.Stream
	tr     *tracer
	ranks  []core.Rank // back-ends in the seed's round-robin order
	bes    map[core.Rank]*core.BackEnd
	maxR   int
	sent   []uint64 // per-rank counter of the last sample sent
	gotCtr []uint64 // per-rank counter of the last sample received
}

func launchStream(w workload, seed int64, tree *topology.Tree, tr *tracer) (instance, setupTimes, error) {
	leaves := tree.Leaves()
	var (
		mu    sync.Mutex
		bes   = map[core.Rank]*core.BackEnd{}
		ready sync.WaitGroup
	)
	ready.Add(len(leaves))
	cfg := productionConfig(tree, w.transport, tr)
	// Handlers only receive: the first packet, the start multicast, tells
	// that the stream is announced on this back-end's path.
	cfg.OnBackEnd = func(be *core.BackEnd) error {
		mu.Lock()
		bes[be.Rank()] = be
		mu.Unlock()
		first := true
		defer func() {
			if first { // shut down before the start multicast arrived
				ready.Done()
			}
		}()
		for {
			if _, err := be.Recv(); err != nil {
				return nil
			}
			if first {
				first = false
				ready.Done()
			}
		}
	}
	var st setupTimes
	t0 := time.Now()
	nw, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	s, err := nw.NewStream(core.StreamSpec{Transformation: "", Synchronization: "nullsync"})
	if err != nil {
		nw.Shutdown()
		return nil, st, err
	}
	t2 := time.Now()
	ranks := append([]core.Rank(nil), leaves...)
	rand.New(rand.NewSource(seed)).Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	maxR := tree.Len()
	inst := &streamInstance{w: w, nw: nw, st: s, tr: tr, ranks: ranks, maxR: maxR,
		sent: make([]uint64, maxR), gotCtr: make([]uint64, maxR)}
	if err := s.Multicast(packet.TagFirstApplication, "%d", int64(0)); err != nil {
		inst.close()
		return nil, st, err
	}
	allReady := make(chan struct{})
	go func() {
		ready.Wait()
		close(allReady)
	}()
	select {
	case <-allReady:
	case <-time.After(opTimeout):
		// Shutdown ends every handler, which releases the waiter above.
		inst.close()
		return nil, st, errors.New("start multicast did not reach every back-end")
	}
	inst.bes = bes // every handler has stored its back-end before ready.Done
	// The first op: one sample from the first back-end, received and checked.
	first := newOpStats(0, 0, 0)
	origin := ranks[0]
	if err := inst.send(origin, 0); err != nil {
		first.fail(err)
	} else if p, err := s.RecvTimeout(opTimeout); err != nil {
		first.fail(fmt.Errorf("first sample: %w", err))
	} else if _, _, err := inst.accept(p); err != nil {
		first.fail(err)
	}
	if first.failed > 0 {
		inst.close()
		return nil, st, fmt.Errorf("first op: %w", first.firstErr)
	}
	t3 := time.Now()
	st = setupTimes{newNetwork: t1.Sub(t0), newStream: t2.Sub(t1), firstOp: t3.Sub(t2)}
	return inst, st, nil
}

func (in *streamInstance) net() *core.Network { return in.nw }
func (in *streamInstance) close()             { in.nw.Shutdown() }

// send emits origin's next sample, due at dueNs after the generator's
// epoch. Only the generator that owns origin calls it.
func (in *streamInstance) send(origin core.Rank, dueNs int64) error {
	in.sent[origin]++
	ctr := in.sent[origin]
	be := in.bes[origin]
	if in.tr == nil {
		return be.Send(in.st.ID(), packet.TagFirstApplication, "%d %d %d", int64(origin), int64(ctr), dueNs)
	}
	start := in.tr.begin()
	err := be.Send(in.st.ID(), packet.TagFirstApplication, "%d %d %d", int64(origin), int64(ctr), dueNs)
	in.tr.end(spanBESend, int64(origin)<<32|int64(ctr), start)
	return err
}

// accept checks that a sample is its origin's next one and returns its
// due time.
func (in *streamInstance) accept(p *packet.Packet) (core.Rank, int64, error) {
	o, err1 := p.Int(0)
	ctr, err2 := p.Int(1)
	due, err3 := p.Int(2)
	if err := errors.Join(err1, err2, err3); err != nil {
		return 0, 0, fmt.Errorf("sample: %w", err)
	}
	if o < 0 || o >= int64(in.maxR) {
		return 0, 0, fmt.Errorf("sample from unknown origin %d", o)
	}
	if want := in.gotCtr[o] + 1; uint64(ctr) != want {
		return 0, 0, fmt.Errorf("origin %d: sample %d arrived, want %d (lost, duplicated or misordered)", o, ctr, want)
	}
	in.gotCtr[o] = uint64(ctr)
	return core.Rank(o), due, nil
}

// generate runs one generator goroutine: every tick it sends the samples
// due in that tick whose back-end it owns. Sample s is due at tick
// s/perTick and goes to back-end ranks[s % len(ranks)]; generator g owns
// the back-ends at positions with pos % gens == g, so each origin's
// samples leave in order from one goroutine.
func (in *streamInstance) generate(g, gens int, epoch time.Time, tick time.Duration, ticks, perTick int64, lag func(ms float64, due time.Duration), errs *opStats, mu *sync.Mutex) {
	n := int64(len(in.ranks))
	for k := int64(0); k < ticks; k++ {
		due := time.Duration(k) * tick
		if wait := time.Until(epoch.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		for s := k * perTick; s < (k+1)*perTick; s++ {
			pos := s % n
			if int(pos)%gens != g {
				continue
			}
			late := time.Since(epoch) - due
			lag(float64(late)/1e6, due)
			if err := in.send(in.ranks[pos], int64(due)); err != nil {
				mu.Lock()
				errs.fail(err)
				mu.Unlock()
				return
			}
		}
	}
}

func (in *streamInstance) measure(warm, d time.Duration, mark func(i int)) *opStats {
	const tickDur = time.Millisecond
	perTick := int64(in.w.rate) / int64(time.Second/tickDur)
	ticks := int64((warm + d) / tickDur)
	gens := runtime.GOMAXPROCS(0)
	if gens > len(in.ranks) {
		gens = len(in.ranks)
	}

	perSlice := int(int64(d/tickDur)*perTick) / slices
	s := newOpStats(warm, d, perSlice+perSlice/10)
	s.lagMs = make([]float32, 0, perSlice*slices)
	var mu sync.Mutex // guards s.fail and s.lagMs across goroutines
	epoch := time.Now()
	lag := func(ms float64, due time.Duration) {
		if s.slice(due) >= 0 {
			mu.Lock()
			s.lagMs = append(s.lagMs, float32(ms))
			mu.Unlock()
		}
	}
	var sentTotal atomic.Int64
	sentTotal.Store(-1)
	var gw sync.WaitGroup
	for g := 0; g < gens; g++ {
		gw.Add(1)
		go func(g int) {
			defer gw.Done()
			in.generate(g, gens, epoch, tickDur, ticks, perTick, lag, s, &mu)
		}(g)
	}
	go func() {
		gw.Wait()
		sentTotal.Store(ticks * perTick)
	}()
	marks := markWindow(epoch, s, mark)

	var got int64
	for {
		if tot := sentTotal.Load(); tot >= 0 && got >= tot {
			break
		}
		p, err := in.st.RecvTimeout(opTimeout)
		if err != nil {
			mu.Lock()
			s.fail(fmt.Errorf("stream receive after %d samples: %w", got, err))
			mu.Unlock()
			break
		}
		now := time.Since(epoch)
		got++
		_, due, err := in.accept(p)
		if err != nil {
			mu.Lock()
			s.fail(err)
			mu.Unlock()
			continue
		}
		s.record(now, time.Duration(due), float64(now-time.Duration(due))/1e6)
	}
	gw.Wait()
	<-marks
	// Samples never received count as failed: every sent one is owed.
	if tot := sentTotal.Load(); tot > got {
		s.failed += tot - got
	}
	s.attempted = int64(d/tickDur) * perTick
	return s
}

// percentile returns the q-quantile of xs (sorted in place).
func percentile(xs []float32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return float64(xs[int(q*float64(len(xs)-1))])
}
