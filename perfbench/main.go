// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed number of global updates, times the updates after a
// warm-up cut, checks the run's output, and prints every metric with its
// unit and sample count; the last line of standard output is one JSON
// object with the result.
//
//	perfbench --workload cnn-fedat --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// makes the same untraced run, then a traced one whose layer wrappers give
// the per-layer metrics; both must end on the same model. README.md lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// Each invocation builds and runs its workload reps times and reports the
// median of each window metric across them, so one slow stretch of a
// shared host moves a figure less; setup_s also counts setupProbes extra
// builds that stop after a minimal budget.
const (
	reps        = 3
	setupProbes = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "nominal run length; sets the fixed update budget")
	trace := fs.Int("trace", 0, "1 = also make a traced run and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *trace, err)
		return 2
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one printed value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured is one finished run: its probe, outcome and timed window.
type measured struct {
	p   *probe
	out *outcome
	win window
}

func (m measured) p50ms() float64 { return quantile(m.win.intervals, 0.5) * 1e3 }

// once builds and runs the workload with a fresh probe.
func once(w workload, seed uint64, budget, warmup int, tr *tracer) (measured, error) {
	runtime.GC()
	p := newProbe(budget, warmup, tr)
	out, err := w.run(&runCtx{seed: seed, budget: budget, p: p, tr: tr})
	if err != nil {
		return measured{}, err
	}
	if len(p.ticks) != budget {
		return measured{}, fmt.Errorf("%d updates, budget %d", len(p.ticks), budget)
	}
	win, err := cutWarmup(p.ticks, warmup)
	if err != nil {
		return measured{}, err
	}
	return measured{p: p, out: out, win: win}, nil
}

func bench(w workload, seed uint64, seconds int, traced bool, stdout io.Writer) (*result, error) {
	budget := w.budget(seconds)
	var calib0 time.Duration
	if traced {
		calib0 = calibrate()
	}

	var setups []float64
	if !traced {
		for i := 0; i < setupProbes; i++ {
			runtime.GC()
			p := newProbe(minBudget(w), 1, nil)
			if _, err := w.run(&runCtx{seed: seed, budget: minBudget(w), p: p}); err != nil {
				return nil, fmt.Errorf("set-up run: %w", err)
			}
			setups = append(setups, p.setup().Seconds())
		}
	}
	runs := make([]measured, reps)
	for i := range runs {
		m, err := once(w, seed, budget, w.warmup, nil)
		if err != nil {
			return nil, err
		}
		runs[i] = m
		setups = append(setups, m.p.setup().Seconds())
	}

	var problems []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	first := runs[0]
	checkOutcome(check, w.name, seed, seconds, first)
	for _, m := range runs[1:] {
		check(digest(m.out.final) == digest(first.out.final) && m.out.eval == first.out.eval,
			"repeated run ended on model %s, first on %s", digest(m.out.final), digest(first.out.final))
	}

	res := &result{Attempted: budget * reps}
	var table []row
	if !traced {
		res.Metrics, table = endToEnd(runs, setups)
	} else {
		tm, err := once(w, seed, budget, w.warmup, &tracer{})
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.Attempted += budget
		check(digest(tm.out.final) == digest(first.out.final),
			"traced run ended on model %s, untraced on %s", digest(tm.out.final), digest(first.out.final))
		res.Metrics, table = perLayer(tm, runs, calib0, calibrate())
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  %d runs of %d updates  warm-up %d  timed %d  digest %s  final_loss %.17g\n",
		w.name, seed, reps, budget, first.win.warmup, first.win.updates(), digest(first.out.final), first.out.eval.Loss)
	printTable(stdout, table)
	for _, pr := range problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", pr)
	}
	res.Correct = len(problems) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res, nil
}

// minBudget is the smallest budget a set-up run uses.
func minBudget(w workload) int {
	if w.even {
		return 2
	}
	return 1
}

// checkOutcome applies the output checks every run must pass.
func checkOutcome(check func(bool, string, ...any), name string, seed uint64, seconds int, m measured) {
	o := m.out
	check(len(o.final) > 0 && finite(o.final), "final model is empty or not finite")
	check(!math.IsNaN(o.eval.Loss) && !math.IsInf(o.eval.Loss, 0) && o.eval.Loss > 0, "final loss %v", o.eval.Loss)
	check(o.eval.Acc > 0 && o.eval.Acc <= 1, "final accuracy %v", o.eval.Acc)
	check(o.up > 0 && o.down > 0, "bytes on the wire: up %d, down %d", o.up, o.down)
	d, dl := m.p.dispatched.Load(), m.p.delivered.Load()
	check(d > 0 && dl > 0 && dl <= d, "client updates: %d dispatched, %d delivered", d, dl)
	if pin, ok := pinned(name, seed, seconds); ok {
		check(pin.Digest == digest(o.final), "final model %s, pinned %s", digest(o.final), pin.Digest)
		check(pin.Loss == o.eval.Loss, "final loss %.17g, pinned %.17g", o.eval.Loss, pin.Loss)
	}
}

// row is one printed metric line.
type row struct {
	name string
	m    metric
	note string
}

func printTable(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-26s %16s  %-8s %8s  %s\n", "metric", "value", "unit", "samples", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %16.6g  %-8s %8d  %s\n", r.name, r.m.Value, r.m.Unit, r.m.samples, r.note)
	}
}

// collect turns rows into the JSON metric map.
func collect(rows []row) map[string]metric {
	out := make(map[string]metric, len(rows))
	for _, r := range rows {
		out[r.name] = r.m
	}
	return out
}

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// across is the median of f over the runs.
func across(runs []measured, f func(measured) float64) float64 {
	xs := make([]float64, len(runs))
	for i, m := range runs {
		xs[i] = f(m)
	}
	return quantile(xs, 0.5)
}

// endToEnd derives the user-visible metrics of the untraced runs: window
// figures are medians across runs, whole-run figures are the first run's
// (every run computes the same ones; the output check holds them equal).
func endToEnd(runs []measured, setups []float64) (map[string]metric, []row) {
	m := runs[0]
	u := m.win.updates()
	timed := u * len(runs)
	budget := float64(m.p.budget)
	o := m.out
	perUpdate := func(f func(op, cl mark) float64) float64 {
		return across(runs, func(m measured) float64 { return m.win.perUpdate(f(m.p.open, m.p.close)) })
	}
	rate := func(m measured) float64 { return float64(m.win.updates()) / m.win.seconds }
	var each []string
	for _, m := range runs {
		each = append(each, fmt.Sprintf("%.4g", rate(m)))
	}
	rows := []row{
		{"setup_s", metric{quantile(setups, 0.5), "s", len(setups)}, "median of set-ups"},
		{"updates_per_s", metric{across(runs, rate), "1/s", timed}, "runs " + strings.Join(each, " ")},
		{"update_ms_p50", metric{across(runs, func(m measured) float64 { return quantile(m.win.intervals, 0.5) * 1e3 }), "ms", timed}, ""},
		{"update_ms_p90", metric{across(runs, func(m measured) float64 { return quantile(m.win.intervals, 0.9) * 1e3 }), "ms", timed},
			fmt.Sprintf("%d samples beyond per run", beyond(u, 0.9))},
		{"cpu_ms_per_update", metric{perUpdate(func(op, cl mark) float64 { return float64(cl.cpu-op.cpu) / 1e6 }), "ms", timed}, ""},
		{"alloc_kb_per_update", metric{perUpdate(func(op, cl mark) float64 { return float64(cl.bytes-op.bytes) / 1e3 }), "kB", timed}, ""},
		{"allocs_per_update", metric{perUpdate(func(op, cl mark) float64 { return float64(cl.allocs - op.allocs) }), "count", timed}, ""},
		{"heap_peak_mb", metric{across(runs, func(m measured) float64 { return float64(m.p.heapPeak) / 1e6 }), "MB", int(budget) * len(runs)}, "post-GC live heap"},
		{"up_kb_per_update", metric{float64(o.up) / 1e3 / budget, "kB", int(budget)}, "whole run"},
		{"down_kb_per_update", metric{float64(o.down) / 1e3 / budget, "kB", int(budget)}, "whole run"},
		{"delivered_frac", metric{ratio(float64(m.p.delivered.Load()), float64(m.p.dispatched.Load())), "ratio",
			int(m.p.dispatched.Load())}, "= 1 - dropped_frac"},
		{"final_loss", metric{o.eval.Loss, "nat", 1}, ""},
		{"final_acc", metric{o.eval.Acc, "ratio", 1}, ""},
	}
	return collect(rows), rows
}

// perLayer derives the per-layer metrics of a traced run; base holds the
// untraced runs of the same process.
func perLayer(m measured, base []measured, calib0, calib1 time.Duration) (map[string]metric, []row) {
	u := m.win.updates()
	d := m.p.close.layers.minus(m.p.open.layers)
	o := m.out
	ms := func(ns int64) float64 { return m.win.perUpdate(float64(ns) / 1e6) }

	train := 0.0
	switch {
	case o.cohort > 0: // live: client rounds, from the optimizer wrapper
		train = ms(d.trainNs)
	case !o.verbatim: // simulator: dispatch outside the codec passes
		train = ms(d.dispatchNs - d.encodeNs - d.decodeNs)
	}
	encMs, decMs, cliEnc, cliDec := ms(d.encodeNs), ms(d.decodeNs), 0.0, 0.0
	encCalls, bytesPerEnc := m.win.perUpdate(float64(d.encodeN)), ratio(float64(d.encodeBytes), float64(d.encodeN))
	encSamples := int(d.encodeN)
	residual := 0.0
	if rp := o.replay; rp != nil {
		// Per sync round the server marshals once and unmarshals one
		// update per client; each client unmarshals and marshals once.
		c := float64(o.cohort)
		encMs, decMs = rp.encodeNs/1e6, c*rp.decodeNs/1e6
		cliEnc, cliDec = c*rp.encodeNs/1e6, c*rp.decodeNs/1e6
		encCalls, bytesPerEnc, encSamples = 1, float64(rp.bytes), u
		// The clients and the server's collectors run side by side, so a
		// round waits for one client's share of their spans.
		residual = m.win.seconds*1e3/float64(u) - (encMs + (decMs+cliEnc+cliDec+ms(d.optNs))/c + ms(d.evalNs))
	}
	dispatch, fold, eval := ms(d.dispatchNs), ms(d.foldNs), ms(d.evalNs)
	cloudFolds, stale, uplink := 0.0, 0.0, 0.0
	if c := o.cloud; c != nil {
		cloudFolds = float64(c.EdgeFolds)
		stale = ratio(c.EdgeStaleness, cloudFolds)
		uplink = ratio(float64(c.UpBytes)/1e3, cloudFolds)
	}
	overhead := ratio(m.p50ms(), across(base, measured.p50ms)) - 1
	rows := []row{
		{"fl.train.ms", metric{train, "ms", u}, "dispatch minus codec (sim), client rounds (live)"},
		{"fl.dispatch.ms", metric{dispatch, "ms", u}, ""},
		{"fl.dispatch.calls", metric{m.win.perUpdate(float64(d.dispatchN)), "count", u}, "per update"},
		{"fl.dispatch.clients", metric{ratio(float64(d.dispatchClients), float64(d.dispatchN)), "count", int(d.dispatchN)}, "per call"},
		{"simnet.link_reservations", metric{float64(o.reservations), "count", 1}, "at the end of the run"},
		{"simnet.events", metric{m.win.perUpdate(float64(d.events)), "count", u}, "per update"},
		{"fl.fold.ms", metric{fold, "ms", u}, ""},
		{"edge.cloud_folds", metric{cloudFolds, "count", 1}, "whole run"},
		{"edge.staleness_mean", metric{stale, "epochs", int(cloudFolds)}, ""},
		{"edge.uplink_kb", metric{uplink, "kB", int(cloudFolds)}, "per cloud fold"},
		{"codec.encode.ms", metric{encMs, "ms", u}, ""},
		{"codec.decode.ms", metric{decMs, "ms", u}, ""},
		{"codec.encode.calls", metric{encCalls, "count", u}, "per update"},
		{"codec.bytes_per_encode", metric{bytesPerEnc, "B", encSamples}, ""},
		{"codec.client_encode.ms", metric{cliEnc, "ms", u}, "live: replayed"},
		{"codec.client_decode.ms", metric{cliDec, "ms", u}, "live: replayed"},
		{"opt.step.ms", metric{ms(d.optNs), "ms", u}, "live clients"},
		{"opt.step.calls", metric{m.win.perUpdate(float64(d.optN)), "count", u}, "live clients"},
		{"transport.residual.ms", metric{residual, "ms", u}, "live: wall minus one client's share of codec, opt; eval"},
		{"fl.eval.ms", metric{eval, "ms", u}, ""},
		{"fl.self.ms", metric{m.win.seconds*1e3/float64(u) - dispatch - fold - eval, "ms", u}, ""},
		{"tiering.partition_ms", metric{float64(m.p.tr.partition.ns.Load()) / 1e6, "ms", 1}, "once per run"},
		{"dataset.build_ms", metric{float64(o.dataNs) / 1e6, "ms", 1}, "once per run"},
		{"host.calib_ms", metric{float64(calib0+calib1) / 2 / 1e6, "ms", 2},
			fmt.Sprintf("start %.2f, end %.2f", float64(calib0)/1e6, float64(calib1)/1e6)},
		{"trace.overhead_frac", metric{overhead, "ratio", u}, "traced / untraced update_ms_p50 - 1"},
	}
	return collect(rows), rows
}
