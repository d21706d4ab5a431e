package canon_test

import (
	"testing"

	"pase/internal/canon"
	"pase/internal/models"
)

// Encoding is per value and per node on every request and model build, so a
// reused writer must encode a node's content without allocating: a recorder
// rewound to its prefix, and a hashing writer through its checkpoint.
func TestReusedWriterDoesNotAllocate(t *testing.T) {
	g := models.Transformer(models.BaseTransformer(64))
	var node = g.Nodes[0]
	for _, n := range g.Nodes {
		if n.Name == "enc0_self_wo" {
			node = n
		}
	}
	rec := canon.NewRecorder()
	rec.Label("prefix")
	head := len(rec.Bytes())
	node.CanonicalEncodeContent(rec) // grow the buffer once
	if n := testing.AllocsPerRun(100, func() {
		rec.Truncate(head)
		node.CanonicalEncodeContent(rec)
		rec.Sum()
	}); n != 0 {
		t.Errorf("recorder: %v allocations per node, want 0", n)
	}
	w := canon.NewWriter()
	if n := testing.AllocsPerRun(100, func() {
		node.CanonicalEncodeContent(w)
		w.Sum()
	}); n != 0 {
		t.Errorf("hashing writer: %v allocations per node, want 0", n)
	}
}
