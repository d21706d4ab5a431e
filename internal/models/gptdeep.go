package models

import (
	"fmt"
	"strconv"
	"strings"

	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/layers"
)

// GPTDeepConfig sizes the GPT-scale decoder-only stack.
type GPTDeepConfig struct {
	Batch    int64
	SeqLen   int64
	DModel   int64
	Heads    int64
	KVDim    int64
	FFHidden int64
	Vocab    int64
	Layers   int
}

// BaseGPTDeep returns the default GPT-scale decoder configuration: GPT-2
// class dimensions with a cross-layer shared KV memory (below) and a depth
// chosen so the exact DP's tables blow past DefaultMaxTableEntries while the
// beam solver finishes in seconds.
func BaseGPTDeep(batch int64, layerCount int) GPTDeepConfig {
	return GPTDeepConfig{
		Batch:    batch,
		SeqLen:   64,
		DModel:   1024,
		Heads:    16,
		KVDim:    64,
		FFHidden: 4096,
		Vocab:    32768,
		Layers:   layerCount,
	}
}

// GPTDeep builds a decoder-only stack with cross-layer shared key/value
// memory (YOCO / cross-layer-attention style): every layer runs
// self-attention over its own stream plus attention into the token
// embedding stream, then a feed-forward sublayer, all with residual layer
// norms; a tied projection head closes the graph. The shared memory stream
// is read by every layer, so its live range spans the whole stack — the
// dependent sets the DP must carry grow a global member on top of each
// layer's local ones, and under the permissive enumeration policy the
// per-position table size K^|D(i)| exceeds any realistic exact-DP budget.
// This is the in-repo "graph the exact DP cannot finish" that the beam
// solver is for.
func GPTDeep(cfg GPTDeepConfig) *graph.Graph {
	b := layers.New()
	tc := TransformerConfig{
		Batch:    cfg.Batch,
		SeqLen:   cfg.SeqLen,
		DModel:   cfg.DModel,
		Heads:    cfg.Heads,
		KVDim:    cfg.KVDim,
		FFHidden: cfg.FFHidden,
		Vocab:    cfg.Vocab,
		Layers:   cfg.Layers,
	}
	x := b.Embedding("embed", cfg.Batch, cfg.SeqLen, cfg.DModel, cfg.Vocab)
	y := x
	for i := 0; i < cfg.Layers; i++ {
		y = attnBlock(b, fmt.Sprintf("l%d_self", i), y, y, tc)
		y = attnBlock(b, fmt.Sprintf("l%d_mem", i), y, x, tc)
		y = ffnBlock(b, fmt.Sprintf("l%d_ffn", i), y, tc)
	}
	proj := b.Projection("lm_head", y, cfg.Batch, cfg.SeqLen, cfg.Vocab, cfg.DModel)
	b.SeqSoftmax("softmax", proj, cfg.Batch, cfg.SeqLen, cfg.Vocab)
	return b.G
}

// DefaultGPTDeepLayers is the depth "gptdeep" resolves to when the spec
// string does not name one.
const DefaultGPTDeepLayers = 12

// gptDeepBenchmark wraps a depth-parameterized GPTDeep build as a registry
// Benchmark. Unlike the four paper models its policy is unrestricted at any
// device count: the point of the model is precisely that its exact tables do
// not fit, so the policy is not narrowed to rescue them.
func gptDeepBenchmark(layerCount int) Benchmark {
	return Benchmark{
		Name:   fmt.Sprintf("GPTDeep:%d", layerCount),
		Family: "transformer",
		Batch:  64,
		Build: func(batch int64) *graph.Graph {
			return GPTDeep(BaseGPTDeep(batch, layerCount))
		},
		Policy: func(int) itspace.EnumPolicy {
			return itspace.EnumPolicy{}
		},
	}
}

// parseGPTDeep resolves "gptdeep" or "gptdeep:<layers>" spec strings.
func parseGPTDeep(name string) (Benchmark, bool, error) {
	rest, ok := cutFold(name, "gptdeep")
	if !ok {
		return Benchmark{}, false, nil
	}
	if rest == "" {
		return gptDeepBenchmark(DefaultGPTDeepLayers), true, nil
	}
	if !strings.HasPrefix(rest, ":") {
		return Benchmark{}, false, nil
	}
	layerCount, err := strconv.Atoi(rest[1:])
	if err != nil || layerCount < 1 || layerCount > 4096 {
		return Benchmark{}, true, fmt.Errorf("models: bad gptdeep layer count %q (want gptdeep:<layers>, 1..4096)", rest[1:])
	}
	return gptDeepBenchmark(layerCount), true, nil
}

// cutFold strips a case-insensitive prefix, reporting whether it matched.
func cutFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return "", false
	}
	return s[len(prefix):], true
}
