package main

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// workload is one benchmark configuration. Its budget is a fixed number of
// global updates derived from --seconds and a constant nominal rate, never
// from the wall clock, so a run does the same work on any host.
//
// Each workload trains on a fixed corpus, generated from its own constant
// seed as a benchmark dataset would be; --seed draws everything else: the
// simulated cluster (speeds, delay tiers, drop times), model
// initialisation, client selection and batch schedules.
type workload struct {
	name   string
	why    string
	rate   float64 // timed updates per requested second, over all reps
	warmup int     // updates cut from the front of each run's timed window
	even   bool    // budget must be even (two edges fold alternately)
	run    func(r *runCtx) (*outcome, error)
}

// corpusSeed seeds every workload's training data.
const corpusSeed = 1

// budget returns one run's total update count for the requested seconds.
func (w workload) budget(seconds int) int {
	n := int(w.rate*float64(seconds)/reps + 0.5)
	if n < minWindow {
		n = minWindow
	}
	n += w.warmup
	if w.even && n%2 == 1 {
		n++
	}
	return n
}

var workloads = []workload{
	{
		name:   "cnn-fedat",
		why:    "the paper's FedAT on a CNN over non-IID cifar10-like data: local training (kernels, nn, opt) dominates",
		rate:   35,
		warmup: 30,
		run:    cnnFedAT,
	},
	{
		name:   "swarm-fedbuff",
		why:    "thousands of wait-free logistic clients: per-dispatch engine cost (event clock, pacer, link model, fold)",
		rate:   1200,
		warmup: 300,
		run:    swarmFedBuff,
	},
	{
		// The MLP is still learning when the budget ends: at half this
		// rate, ten seeds' final_acc spread 11% of the median, here 8%.
		name:   "million-edge",
		why:    "1,000,000 lazy clients on 2 FedAT edges with an async top-k cloud: lazy population, parallel clock, cloud fold",
		rate:   140,
		warmup: 60,
		even:   true,
		run:    millionEdge,
	},
	{
		name:   "live-loopback",
		why:    "sync fedavg over loopback TCP with 2 clients: framing, codec and socket cost per round",
		rate:   130,
		warmup: 50,
		run:    liveLoopback,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runCtx is what a workload runs with: the seed its inputs derive from,
// the update budget, the probe that times it and, on a traced run, the
// tracer its wrappers feed.
type runCtx struct {
	seed   uint64
	budget int
	p      *probe
	tr     *tracer
}

// outcome is what a finished run reports besides the probe's timings.
type outcome struct {
	final        []float64 // final global model
	eval         fl.Result // evaluation of final
	up, down     int64     // bytes on the wire over the whole run
	reservations int       // simnet link reservations left at the end
	verbatim     bool      // the codec skips encoding on the simulator
	dataNs       int64     // dataset construction time
	cloud        *metrics.Run
	replay       *replay // live runs: codec costs replayed on the final model
	cohort       int     // live runs: clients per round
}

// testbed is the repository's standard virtual cluster (five delay parts,
// one unstable client in ten, 1 MB/s client links, 16 MB/s server link).
func testbed(n int, seed uint64) simnet.ClusterConfig {
	return simnet.ClusterConfig{
		NumClients:  n,
		NumUnstable: n / 10,
		DropHorizon: 20000,
		SecPerBatch: 1.0,
		UpBW:        1 << 20,
		DownBW:      1 << 20,
		ServerBW:    16 << 20,
		Seed:        seed,
	}
}

// withCodec wraps c for a traced run.
func (r *runCtx) withCodec(c codec.Codec) codec.Codec {
	if r.tr == nil {
		return c
	}
	return wrapCodec(c, r.tr)
}

// flatObserver turns a flat engine's event stream into probe updates.
type flatObserver struct {
	p        *probe
	tr       *tracer
	live     bool // no wrapped clock or fabric: dispatches and eval come from events
	final    []float64
	lastFold int64
}

func (o *flatObserver) OnEvent(ev fl.Event) {
	switch e := ev.(type) {
	case fl.RoundStartEvent:
		if o.live {
			o.p.dispatch(len(e.Clients))
		}
	case fl.ClientDoneEvent:
		if !e.Dropped {
			o.p.delivered.Add(1)
		}
	case fl.TierFoldEvent:
		if o.tr != nil && !o.live {
			o.tr.fold.add(nanotime() - o.tr.cbStart.Load())
		}
		o.p.update()
		if e.Round == o.p.budget {
			o.final = append(o.final[:0], e.Global...)
		}
		o.lastFold = nanotime()
	case fl.EvalEvent:
		if o.tr != nil && o.live {
			o.tr.eval.add(nanotime() - o.lastFold)
		}
	}
}

// runFlat runs m on an eager environment over a fresh simulator clock.
func runFlat(r *runCtx, m fl.Method, env *fl.Env, dataNs int64) (*outcome, error) {
	clk := simnet.Clock(simnet.New())
	if r.tr != nil {
		clk = wrapClock(clk, r.tr)
	}
	fab := wrapFabric(env.FabricOn(clk), r.p, r.tr, false)
	obs := &flatObserver{p: r.p, tr: r.tr}
	run, err := m.RunOn(fab, env.Cfg, obs)
	if err != nil {
		return nil, err
	}
	if len(obs.final) == 0 {
		return nil, fmt.Errorf("run ended after %d of %d updates", len(r.p.ticks), r.budget)
	}
	_, verbatim := env.Cfg.Codec.(codec.Verbatim)
	return &outcome{
		final:        obs.final,
		eval:         env.Eval.Evaluate(obs.final),
		up:           run.UpBytes,
		down:         run.DownBytes,
		reservations: env.Cluster.ServerUp.Reservations() + env.Cluster.ServerDown.Reservations(),
		verbatim:     verbatim,
		dataNs:       dataNs,
	}, nil
}

// cnn-fedat trains 50 clients and scores the final model on every test
// split of a 1,000-shard federation over the same corpus, whose first 50
// shards are the training clients. The CNN stays at chance, where each
// test sample is close to a coin flip: on the training shards' ~250 test
// samples alone, the middle half of ten seeds' final_acc spread 14-25% of
// the median; on the ~5,000 here, 7%.
const (
	cnnClients     = 50
	cnnEvalClients = 1000
)

// cnnFedAT is the paper's Table 1 / Figure 2 configuration: registry FedAT
// with polyline-4 both ways, SmallCNN on cifar10-like data with two classes
// per client, 50 clients in 5 tiers, E=3, B=10.
func cnnFedAT(r *runCtx) (*outcome, error) {
	const clients = cnnClients
	t0 := nanotime()
	fed, err := dataset.CIFAR10Like(clients, 2, dataset.ScaleSmall, corpusSeed)
	if err != nil {
		return nil, err
	}
	dataNs := nanotime() - t0
	cluster, err := simnet.NewCluster(testbed(clients, r.seed))
	if err != nil {
		return nil, err
	}
	arch := nn.SmallCNN(fed.ImgC, fed.ImgH, fed.ImgW, fed.Classes)
	factory := func(s uint64) *nn.Network { return nn.NewCNN(rng.New(s), arch) }
	env, err := fl.NewEnv(fed, cluster, factory, fl.RunConfig{
		Rounds: r.budget, ClientsPerRound: 5, LocalEpochs: 3, BatchSize: 10,
		LearningRate: 0.005, NumTiers: 5, Codec: r.withCodec(codec.NewPolyline(4)),
		EvalEvery: 50, Seed: r.seed,
	})
	if err != nil {
		return nil, err
	}
	out, err := runFlat(r, fl.Methods["fedat"], env, dataNs)
	if err != nil {
		return nil, err
	}
	// The evaluation shards are built after the run, so neither setup_s
	// nor heap_peak_mb sees them.
	tests, err := cifarTestSplits(cnnEvalClients)
	if err != nil {
		return nil, err
	}
	out.eval = fl.NewDataEvaluator(factory, r.seed, tests).Evaluate(out.final)
	return out, nil
}

// cifarTestSplits returns the test splits of an n-shard cifar10-like
// federation over the workload corpus, without the train splits.
func cifarTestSplits(n int) ([]*dataset.ClientData, error) {
	fed, err := dataset.CIFAR10Like(n, 2, dataset.ScaleSmall, corpusSeed)
	if err != nil {
		return nil, err
	}
	tests := make([]*dataset.ClientData, n)
	for i, c := range fed.Clients {
		tests[i] = &dataset.ClientData{TestX: c.TestX, TestY: c.TestY}
	}
	return tests, nil
}

// swarmFedBuff is the wait-free many-client regime: 2,000 logistic clients
// on 64-dimensional sent140-like data, one local epoch, raw codec, the
// per-update staleness fold behind the fedbuff pacer.
func swarmFedBuff(r *runCtx) (*outcome, error) {
	const clients = 2000
	t0 := nanotime()
	fed, err := dataset.Sent140Like(clients, 0, dataset.ScaleSmall, corpusSeed)
	if err != nil {
		return nil, err
	}
	dataNs := nanotime() - t0
	cluster, err := simnet.NewCluster(testbed(clients, r.seed))
	if err != nil {
		return nil, err
	}
	factory := func(s uint64) *nn.Network { return nn.NewLogistic(rng.New(s), fed.InDim, fed.Classes) }
	env, err := fl.NewEnv(fed, cluster, factory, fl.RunConfig{
		Rounds: r.budget, ClientsPerRound: 10, LocalEpochs: 1, BatchSize: 10,
		LearningRate: 0.02, Codec: r.withCodec(codec.Raw{}), EvalEvery: 1000, Seed: r.seed,
	})
	if err != nil {
		return nil, err
	}
	m, err := fl.Compose("fedasync", "", "fedbuff", "fedasync:poly:0.5", "")
	if err != nil {
		return nil, err
	}
	return runFlat(r, m, env, dataNs)
}

// Edge layout of million-edge: two edges of half a million lazy clients.
const (
	edges          = 2
	edgeClients    = 500_000
	edgeSeedStride = 1009
	cloudEvalEvery = 200
	// evalSample is the lazy evaluator's client panel; the panel is drawn
	// from the run seed, so a large one keeps final_acc from swinging with
	// which clients it happened to pick.
	evalSample = 1024
)

// millionEdge runs FedAT on each of two lazy edges of 500,000 clients,
// driven by edge.Run with two workers, folding into an async cloud over a
// top-k uplink. One update is one cloud fold.
func millionEdge(r *runCtx) (*outcome, error) {
	cfg := fl.RunConfig{
		Rounds: r.budget / edges, ClientsPerRound: 10, LocalEpochs: 2, BatchSize: 10,
		LearningRate: 0.05, NumTiers: 5, Codec: r.withCodec(codec.NewPolyline(4)),
		EvalEvery: 1 << 30, EvalSample: evalSample, Seed: r.seed,
	}
	var dataNs int64
	envs := make([]*fl.LazyEnv, edges)
	children := make([]edge.Child, edges)
	for e := range envs {
		seed := r.seed + uint64(e)*edgeSeedStride
		t0 := nanotime()
		src, err := dataset.NewSource(dataset.Config{
			Name: "scalelike", NumClients: edgeClients, Classes: 10, SamplesPerClient: 24,
			ClassesPerClient: 2, Seed: corpusSeed + uint64(e)*edgeSeedStride, ImgC: 1, ImgH: 10, ImgW: 10, Signal: 0.34, Noise: 1.0,
		})
		if err != nil {
			return nil, err
		}
		dataNs += nanotime() - t0
		pop, err := simnet.NewPopulation(testbed(edgeClients, seed))
		if err != nil {
			return nil, err
		}
		factory := func(s uint64) *nn.Network { return nn.NewMLP(rng.New(s), src.InDim(), 32, src.Classes()) }
		le, err := fl.NewLazyEnv(src, pop, factory, cfg)
		if err != nil {
			return nil, err
		}
		envs[e] = le
		children[e] = edge.Child{Fabric: func(c simnet.Clock) fl.Fabric {
			if r.tr != nil {
				c = wrapClock(c, r.tr)
			}
			return wrapFabric(le.FabricOn(c), r.p, r.tr, true)
		}}
	}
	// The cloud evaluates on edge 0's sample. Cloud folds run inside
	// synchronisation events, alone, so this never overlaps edge 0's own
	// use of its evaluator.
	evalFab := envs[0].Fabric()
	folds := 0
	cloudEval := func(w []float64) (fl.Result, bool) {
		if r.tr != nil {
			r.tr.fold.add(nanotime() - r.tr.syncStart.Load())
		}
		r.p.update()
		if folds++; folds%cloudEvalEvery != 0 {
			return fl.Result{}, false
		}
		t0 := nanotime()
		res, ok := evalFab.Evaluate(w)
		if r.tr != nil {
			r.tr.eval.add(nanotime() - t0)
		}
		return res, ok
	}
	res, err := edge.Run(fl.Methods["fedat"], cfg, children, edge.Options{
		Fold: edge.FoldAsync, Buffer: 1, StaleExp: 0.5, TopKFrac: 0.1,
		Eval: cloudEval, EvalEvery: 1, Workers: 2,
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{
		final:  res.Final,
		up:     res.Cloud.UpBytes,
		down:   res.Cloud.DownBytes,
		dataNs: dataNs,
		cloud:  res.Cloud,
	}
	out.eval, _ = evalFab.Evaluate(res.Final)
	for e, run := range res.Edges {
		out.up += run.UpBytes
		out.down += run.DownBytes
		n, err := lazyReservations(envs[e])
		if err != nil {
			return nil, err
		}
		out.reservations += n
	}
	return out, nil
}

// lazyReservations counts the reservations on a lazy environment's server
// links. LazyEnv keeps its link shell private, so this reads the field by
// reflection (read-only); it fails loudly if the layout changes.
func lazyReservations(le *fl.LazyEnv) (int, error) {
	links := reflect.ValueOf(le).Elem().FieldByName("links")
	if !links.IsValid() || links.Kind() != reflect.Pointer || links.IsNil() {
		return 0, errors.New("fl.LazyEnv has no links field")
	}
	n := 0
	for _, name := range []string{"ServerUp", "ServerDown"} {
		l := links.Elem().FieldByName(name)
		if !l.IsValid() || l.Kind() != reflect.Pointer || l.IsNil() {
			return 0, fmt.Errorf("simnet.Cluster has no %s link", name)
		}
		busy := l.Elem().FieldByName("busy")
		if !busy.IsValid() || busy.Kind() != reflect.Slice {
			return 0, errors.New("simnet.Link has no busy list")
		}
		n += busy.Len()
	}
	return n, nil
}

// Live layout: two in-process clients, a model large enough that framing,
// codec and TCP outweigh the tiny local step. The clients train on the
// first two shards of a larger federation whose every test split the
// server evaluates, so final_acc is not read off a handful of samples.
const (
	liveClients   = 2
	liveEvalShard = 50
	liveHidden    = 512
)

// liveLoopback serves sync-paced fedavg from a transport.Server to two
// transport.RunClient goroutines over 127.0.0.1, polyline-4 both ways.
// Sync pacing keeps the run bit-reproducible (the repository pins fedavg
// over TCP to the simulator's bits).
func liveLoopback(r *runCtx) (*outcome, error) {
	t0 := nanotime()
	fed, err := dataset.FashionLike(liveEvalShard, 0, dataset.ScaleSmall, corpusSeed)
	if err != nil {
		return nil, err
	}
	dataNs := nanotime() - t0
	factory := func(s uint64) *nn.Network { return nn.NewMLP(rng.New(s), fed.InDim, liveHidden, fed.Classes) }
	ref := factory(r.seed)
	var shapes []codec.ShapeInfo
	for _, s := range ref.ParamShapes() {
		shapes = append(shapes, codec.ShapeInfo{Name: s.Name, Dims: s.Dims})
	}
	cfg := fl.RunConfig{
		Rounds: r.budget, ClientsPerRound: liveClients, LocalEpochs: 1, BatchSize: 32,
		LearningRate: 0.001, NumTiers: 1, Codec: codec.NewPolyline(4), EvalEvery: 100, Seed: r.seed,
	}
	obs := &flatObserver{p: r.p, tr: r.tr, live: true}
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr: "127.0.0.1:0", NumClients: liveClients, Method: fl.Methods["fedavg"],
		Run: cfg, Shapes: shapes, W0: ref.WeightsCopy(), Dataset: fed.Name,
		Eval:      fl.NewDataEvaluator(factory, r.seed, fed.Clients),
		Observers: []fl.Observer{obs},
	})
	if err != nil {
		return nil, err
	}
	// Clients dial only now that the listener is bound: a refused dial
	// would sleep 100 ms and quantise set-up time.
	var wg sync.WaitGroup
	errs := make([]error, liveClients)
	opts := make([]*optWrap, liveClients)
	for i := 0; i < liveClients; i++ {
		var o opt.Optimizer = opt.NewAdam(cfg.LearningRate)
		if r.tr != nil {
			opts[i] = &optWrap{Optimizer: o, tr: r.tr}
			o = opts[i]
		}
		wg.Add(1)
		go func(i int, o opt.Optimizer) {
			defer wg.Done()
			errs[i] = transport.RunClient(transport.ClientConfig{
				Addr: srv.Addr(), ID: uint32(i), LatencyHintMs: 10,
				Data: fed.Clients[i], Net: factory(r.seed), Opt: o,
				Codec: cfg.Codec, Seed: r.seed, DialTimeout: 10 * time.Second,
			})
		}(i, o)
	}
	run, final, err := srv.Run()
	if err != nil {
		srv.Shutdown()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := &outcome{
		final:  final,
		eval:   fl.NewDataEvaluator(factory, r.seed, fed.Clients).Evaluate(final),
		up:     run.UpBytes,
		down:   run.DownBytes,
		dataNs: dataNs,
		cohort: liveClients,
	}
	if r.tr != nil {
		rp, err := replayCodec(cfg.Codec, shapes, final)
		if err != nil {
			return nil, err
		}
		out.replay = rp
	}
	return out, nil
}

// replay is the live codec cost, replayed on the final model: the wire
// codec is chosen by concrete type when a message is marshalled, so a
// timing wrapper cannot ride the live path.
type replay struct {
	encodeNs, decodeNs float64 // median per marshal / unmarshal
	bytes              int     // marshalled message size
}

func replayCodec(c codec.Codec, shapes []codec.ShapeInfo, w []float64) (*replay, error) {
	const reps = 15
	enc := make([]float64, reps)
	dec := make([]float64, reps)
	var msg []byte
	for i := 0; i < reps; i++ {
		t0 := nanotime()
		m, err := codec.MarshalModel(c, shapes, w)
		if err != nil {
			return nil, err
		}
		t1 := nanotime()
		if _, _, err := codec.UnmarshalModel(m); err != nil {
			return nil, err
		}
		enc[i], dec[i] = float64(t1-t0), float64(nanotime()-t1)
		msg = m
	}
	sort.Float64s(enc)
	sort.Float64s(dec)
	return &replay{encodeNs: enc[reps/2], decodeNs: dec[reps/2], bytes: len(msg)}, nil
}
