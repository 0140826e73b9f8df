package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minWindow is the fewest timed updates a run may report: with 100
// intervals at least ten samples lie beyond p90, the highest percentile
// the benchmark prints.
const minWindow = 100

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples of an n-sample set that lie strictly above
// the rank the q-quantile interpolates from.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// window holds what the timed part of a run measured: the wall time
// between consecutive updates after the warm-up cut.
type window struct {
	warmup    int       // updates cut from the front
	intervals []float64 // seconds between consecutive timed updates
	seconds   float64   // wall time from the last warm-up update to the last update
}

// cutWarmup turns the wall timestamps of every update (nanoseconds, one per
// update in order) into the timed window: the first warmup updates only
// open the window, and each later update contributes the interval since
// its predecessor.
func cutWarmup(ticks []int64, warmup int) (window, error) {
	if warmup < 1 {
		return window{}, errors.New("warm-up must keep at least one update to open the window")
	}
	if n := len(ticks) - warmup; n < minWindow {
		return window{}, fmt.Errorf("%d updates after a warm-up of %d, need at least %d", n, warmup, minWindow)
	}
	w := window{warmup: warmup, intervals: make([]float64, 0, len(ticks)-warmup)}
	for i := warmup; i < len(ticks); i++ {
		w.intervals = append(w.intervals, float64(ticks[i]-ticks[i-1])/1e9)
	}
	w.seconds = float64(ticks[len(ticks)-1]-ticks[warmup-1]) / 1e9
	return w, nil
}

// updates is the number of updates the window timed.
func (w window) updates() int { return len(w.intervals) }

// perUpdate divides a window total by the window's update count.
func (w window) perUpdate(total float64) float64 {
	return total / float64(w.updates())
}

// digest is a stable fingerprint of a weight vector: FNV-1a over the
// IEEE-754 bits of every coordinate, so any bit flip changes it.
func digest(w []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// finite reports whether every coordinate is a finite number.
func finite(w []float64) bool {
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
