package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pin is the expected end of one (workload, seed, seconds) run: the digest
// of the final model and the bits of the final loss. The program is
// deterministic per seed, so any change to either is a change in what the
// program computes.
type pin struct {
	Digest string  `json:"digest"`
	Loss   float64 `json:"loss"`
}

//go:embed pins.json
var pinsJSON []byte

// pins maps "workload/seed/seconds" to the expected outcome.
var pins = func() map[string]pin {
	m := map[string]pin{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	return m
}()

func pinKey(workload string, seed uint64, seconds int) string {
	return fmt.Sprintf("%s/%d/%d", workload, seed, seconds)
}

func pinned(workload string, seed uint64, seconds int) (pin, bool) {
	p, ok := pins[pinKey(workload, seed, seconds)]
	return p, ok
}
