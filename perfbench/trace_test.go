package main

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// optional lists which of the optional interfaces the program type-asserts
// a value has.
func optional(v any) map[string]bool {
	_, verbatim := v.(codec.Verbatim)
	_, sd := v.(syncDriven)
	_, syncFab := v.(fl.SyncFabric)
	_, syncSched := v.(simnet.SyncScheduler)
	return map[string]bool{
		"codec.Verbatim": verbatim, "SyncDriven": sd,
		"fl.SyncFabric": syncFab, "simnet.SyncScheduler": syncSched,
	}
}

func sameOptional(t *testing.T, what string, inner, wrapped any) {
	t.Helper()
	in, out := optional(inner), optional(wrapped)
	for name := range in {
		if in[name] != out[name] {
			t.Errorf("%s: inner has %s = %v, wrapper %v", what, name, in[name], out[name])
		}
	}
}

func TestCodecWrapperKeepsOptionalInterfaces(t *testing.T) {
	tr := &tracer{}
	for _, c := range []codec.Codec{codec.Raw{}, codec.NewPolyline(4), codec.NewTopK(0.1)} {
		sameOptional(t, c.Name(), c, wrapCodec(c, tr))
	}
	if _, ok := wrapCodec(codec.Raw{}, tr).(codec.Verbatim); !ok {
		t.Fatal("wrapped Raw lost codec.Verbatim: the simulator would start encoding")
	}
	w := []float64{1.25, -3, 0.5}
	p := codec.NewPolyline(4)
	got := make([]float64, len(w))
	if err := wrapCodec(p, tr).Decode(wrapCodec(p, tr).Encode(w), got); err != nil {
		t.Fatal(err)
	}
	if tr.encode.n.Load() != 1 || tr.decode.n.Load() != 1 || tr.encodeBytes.Load() == 0 {
		t.Errorf("codec wrapper counted %d encodes, %d decodes, %d bytes", tr.encode.n.Load(), tr.decode.n.Load(), tr.encodeBytes.Load())
	}
}

// The live wire picks its codec by concrete type, so a wrapped codec
// cannot be marshalled; live runs replay the codec instead.
func TestWireCodecIsMatchedByConcreteType(t *testing.T) {
	shapes := []codec.ShapeInfo{{Name: "w", Dims: []int{2}}}
	if _, err := codec.MarshalModel(codec.NewPolyline(4), shapes, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.MarshalModel(wrapCodec(codec.NewPolyline(4), &tracer{}), shapes, []float64{1, 2}); err == nil {
		t.Fatal("the wire accepted a wrapped codec: live runs could use the codec wrapper")
	}
}

func TestClockWrapperKeepsOptionalInterfaces(t *testing.T) {
	tr := &tracer{}
	sim := simnet.New()
	sameOptional(t, "simnet.Sim", sim, wrapClock(sim, tr))
	child := simnet.NewMultiClock(2).Child(0)
	sameOptional(t, "MultiClock child", child, wrapClock(child, tr))
	if _, ok := wrapClock(child, tr).(simnet.SyncScheduler); !ok {
		t.Fatal("wrapped MultiClock child lost simnet.SyncScheduler")
	}

	c := wrapClock(sim, tr)
	ran := 0
	c.At(1, func() { ran++ })
	c.At(2, func() { ran++ })
	c.Run()
	if ran != 2 || tr.events.Load() != 2 {
		t.Errorf("ran %d callbacks, counted %d", ran, tr.events.Load())
	}
}

// bareFabric has none of the optional fabric interfaces.
type bareFabric struct{ fl.Fabric }

// driven has only SyncDriven.
type driven struct{ fl.Fabric }

func (driven) SyncDriven() bool { return true }

// atSyncOnly has only fl.SyncFabric.
type atSyncOnly struct{ fl.Fabric }

func (atSyncOnly) AtSync(float64, func()) {}

func TestFabricWrapperKeepsOptionalInterfaces(t *testing.T) {
	fed, err := dataset.Sent140Like(4, 0, dataset.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := simnet.NewCluster(simnet.ClusterConfig{NumClients: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(s uint64) *nn.Network { return nn.NewLogistic(rng.New(s), fed.InDim, fed.Classes) }
	env, err := fl.NewEnv(fed, cluster, factory, fl.RunConfig{Rounds: 2, ClientsPerRound: 2, NumTiers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	p := newProbe(2, 1, tr)
	flat := env.FabricOn(simnet.New())
	edgeChild := env.FabricOn(simnet.NewMultiClock(2).Child(0))
	for name, inner := range map[string]fl.Fabric{
		"flat sim":         flat,
		"MultiClock child": edgeChild,
		"bare":             bareFabric{flat},
		"SyncDriven only":  driven{flat},
		"AtSync only":      atSyncOnly{flat},
	} {
		wrapped := wrapFabric(inner, p, tr, false)
		sameOptional(t, name, inner, wrapped)
		if sd, ok := inner.(syncDriven); ok && wrapped.(syncDriven).SyncDriven() != sd.SyncDriven() {
			t.Errorf("%s: SyncDriven() changed under the wrapper", name)
		}
	}
	// The engine defers continuations exactly when the clock is a
	// MultiClock child; through the wrapper too.
	if wrapFabric(flat, p, tr, false).(syncDriven).SyncDriven() || !wrapFabric(edgeChild, p, tr, false).(syncDriven).SyncDriven() {
		t.Error("wrapped fabrics report the wrong SyncDriven()")
	}
}

// A traced run goes through every wrapper and must end on the untraced
// run's model.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			budget := 12
			var got [2]string
			for i, tr := range []*tracer{nil, {}} {
				p := newProbe(budget, 1, tr)
				out, err := w.run(&runCtx{seed: 3, budget: budget, p: p, tr: tr})
				if err != nil {
					t.Fatal(err)
				}
				if len(p.ticks) != budget || !finite(out.final) {
					t.Fatalf("%d updates of %d, finite model %v", len(p.ticks), budget, finite(out.final))
				}
				got[i] = digest(out.final)
			}
			if got[0] != got[1] {
				t.Fatalf("traced run ended on %s, untraced on %s", got[1], got[0])
			}
		})
	}
}
