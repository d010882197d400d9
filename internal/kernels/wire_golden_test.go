package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gpuhms/internal/trace"
)

// wireGolden is the SHA-256 of trace.WriteJSON for every bundled kernel at
// scale 1. The JSON wire format carries absolute per-lane element indices;
// it must not change when the in-memory trace representation does.
var wireGolden = map[string]string{
	"bfs":          "e9dd2b515109aa84eefeefad8635576a254ac2dafcb52727fc0fbc955ab86178",
	"blackscholes": "f5b56e1808ed95f6710f133da368ff905bf2accdab4e1ba0c472bea6717c4826",
	"cfd":          "3dc44d96a4b492fe9b17d3d6c8e24bec3e29a47aa255cd7684d122646cedbacc",
	"convolution":  "f2ea5a55eaff5639c013fc83ffecb4003a3792a0652fcbe22cc5ae5ced9014d8",
	"dct8x8":       "e36f99e3958e05ba3e74499229411310940d59b0882e9abdf2f882962ca44281",
	"fft":          "e2890a34f2ad7e8597024b4363e1efc06f32213fa6d9d6b0f02873eb1f724eff",
	"histogram":    "3d5ccb5ea9dc7436f6611bbc2d7f4cdd430c890d6bc281117c24ae1d16106677",
	"kmeans":       "bb144059000b7d9c263601e42bcee9f810ddcf93cabe60473344e8545f4b343a",
	"matrixMul":    "22a889d5df34cdce18b2516d07c8cfb1cf7cce4eb959d3d538c8161f0a46793a",
	"md":           "58518b2de864402aa66489e0af0aa0735575ef45287cfe0a238aaeb855150e0e",
	"md5hash":      "f5dbe0c81e2f01f4b4c7a66e69f4bb634c90e3991c8c9fd37cb738922e1ec63e",
	"mriq":         "c659d49a2814c251e40bf9b086c08a9145c8e6ad1696ddebcba881d3f482b52b",
	"nbody":        "825927220da0cb3c67f1e36b5aeb11fa921842a92996308a75f5990b1216ac82",
	"neuralnet":    "bcffafef02ce59de38dada01420707599d665cd8933aa263fbec7658e344894b",
	"pathfinder":   "773346850ebe86ed62b2451351c158e0fff2fd1c55ff911c3a3575a07897bc28",
	"qtc":          "cd54c389eca75757ddf1b296ca1ae58fd58701db2cbf5cf52194b6597c0d1d22",
	"reduction":    "cc3c196d8b20fb73f5c74e6a634ffc49704b9e3a8ec38a518a01419e39f908c6",
	"s3d":          "ade6a585c318abec5c930c0c34eeb940cf218cfc193d72d169fc620a997b5aef",
	"scan":         "12994c27fbc9d77f816bc182664db9a0c3a08b9eaa60e222b02b8495a0a86030",
	"scatteradd":   "ef9a3b891e24eb3beea1a9f482e2113542b4a2cd87b75f2dcf34e515c405876b",
	"sort":         "f3c9411cb1b000622fe4cc38977543e78ef8a69cd3d1a74508a6794fbbf772f3",
	"spmv":         "87a574ba180538591312fb14532b0baf833a3477635e34a3d610c15090e9bd6c",
	"stencil2d":    "3989965cfb5e871f9f9a59ef1c8adcce0c2b2c9a5a9e90340ecb34515771d77a",
	"tablelookup":  "4c27e0520d27f40c455bc2bae50a355582b74a6454bdcaf2a8a6a879afc43f38",
	"transpose":    "0af6761b6ee64b926894c6d10ba801b901cd8325b045988c9393e744b45495d3",
	"triad":        "ed2faad3b5c3eb3f79d7e4b6f3a3829f458e9171c867005397cd8367554087c0",
	"vecadd":       "53e4824bd4cced0790751b1a97c578d998b3142c4d1562bbfa289f3e874b4656",
}

// TestWireFormatGolden pins the serialized bytes of every bundled kernel's
// trace, so a change to how traces are stored in memory cannot change what
// tracedump -export and WriteJSON produce.
func TestWireFormatGolden(t *testing.T) {
	for _, name := range Names() {
		h := sha256.New()
		if err := trace.WriteJSON(h, MustGet(name).Trace(1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := wireGolden[name]; got != want {
			t.Errorf("%s: WriteJSON sha256 %s, golden %q", name, got, want)
		}
	}
}
