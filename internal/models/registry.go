package models

import (
	"fmt"
	"strings"

	"pase/internal/graph"
	"pase/internal/itspace"
)

// Benchmark bundles one of the paper's evaluation models with the metadata
// the experiment harness needs: the expert-strategy family and the
// configuration-enumeration policy its graph needs to stay tractable.
type Benchmark struct {
	Name string
	// Family selects the expert strategy: "cnn", "rnn", or "transformer".
	Family string
	// Batch is the paper's mini-batch size for this model.
	Batch int64
	// Build constructs the computation graph.
	Build func(batch int64) *graph.Graph
	// Policy returns the enumeration policy for p devices. The Transformer
	// graph — where every dimension is a power of two — caps the number of
	// simultaneously split dims to keep K near the paper's reported range;
	// the other models are unrestricted (their indivisible spatial/filter
	// dims bound K naturally).
	Policy func(p int) itspace.EnumPolicy
}

func unrestricted(int) itspace.EnumPolicy { return itspace.EnumPolicy{} }

// Benchmarks returns the paper's four evaluation models in Table I order.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{
			Name:   "AlexNet",
			Family: "cnn",
			Batch:  128,
			Build:  AlexNet,
			Policy: unrestricted,
		},
		{
			Name:   "InceptionV3",
			Family: "cnn",
			Batch:  128,
			Build:  InceptionV3,
			Policy: unrestricted,
		},
		{
			Name:   "RNNLM",
			Family: "rnn",
			Batch:  64,
			Build:  RNNLM,
			Policy: unrestricted,
		},
		{
			Name:   "Transformer",
			Family: "transformer",
			Batch:  64,
			Build:  func(b int64) *graph.Graph { return Transformer(BaseTransformer(b)) },
			Policy: func(p int) itspace.EnumPolicy {
				if p >= 16 {
					return itspace.EnumPolicy{MaxSplitDims: 2}
				}
				return itspace.EnumPolicy{MaxSplitDims: 3}
			},
		},
	}
}

// ByName returns the named benchmark ("alexnet", "inceptionv3", "rnnlm",
// "transformer", case-insensitive). Parameterized models are parsed from the
// name: "gptdeep" or "gptdeep:<layers>" builds the GPT-scale decoder stack
// at the given depth (see GPTDeep).
func ByName(name string) (Benchmark, error) {
	for _, bm := range Benchmarks() {
		if strings.EqualFold(bm.Name, name) {
			return bm, nil
		}
	}
	if bm, ok, err := parseGPTDeep(name); ok {
		return bm, err
	}
	var names []string
	for _, bm := range Benchmarks() {
		names = append(names, strings.ToLower(bm.Name))
	}
	return Benchmark{}, fmt.Errorf("models: unknown benchmark %q (want %s, or gptdeep:<layers>)",
		name, strings.Join(names, ", "))
}
