package main

import (
	"slices"
	"testing"

	"repro/internal/dataset"
)

// cnn-fedat's evaluation federation must extend its training corpus: the
// first shards are the training clients' own test splits, and the whole
// holds enough samples that a chance-level final_acc stays steady.
func TestCNNEvalShardsExtendTrainingCorpus(t *testing.T) {
	train, err := dataset.CIFAR10Like(cnnClients, 2, dataset.ScaleSmall, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := cifarTestSplits(cnnEvalClients)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != cnnEvalClients {
		t.Fatalf("%d evaluation shards, want %d", len(tests), cnnEvalClients)
	}
	for i, c := range train.Clients {
		e := tests[i]
		if e.TrainX != nil || e.NumTrain() != 0 {
			t.Fatalf("evaluation shard %d keeps its train split", i)
		}
		if !slices.Equal(c.TestY, e.TestY) || !slices.Equal(c.TestX.Data, e.TestX.Data) {
			t.Fatalf("evaluation shard %d differs from training client %d's test split", i, i)
		}
	}
	n := 0
	for _, e := range tests {
		n += e.NumTest()
	}
	if n < 4000 {
		t.Errorf("%d evaluation samples, want at least 4000", n)
	}
}
