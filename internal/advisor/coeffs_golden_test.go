package advisor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gpuhms/internal/gpu"
)

// TestGoldenTrainedCoefficients pins the exact Save bytes (options plus the
// trained Eq 11 coefficients) of a freshly trained advisor on every
// registered arch. Any change to the training placements, their
// measurements, the untrained predictions or the fit moves a hash.
func TestGoldenTrainedCoefficients(t *testing.T) {
	golden := map[string]string{
		"k80":     "cc6598b66134259e5676782fc7b772fdedd1738fdc618e23c4b6861759737675",
		"fermi":   "ad643a56b6f67d815d62ce5c802f3d1255227827cda48f2fa813bce56989e68b",
		"hbm":     "92c7a2fc3bdd730bf0daf99450e9255fef64ef13eef806d7d4db2c5f12802781",
		"chiplet": "45b605e53dd39655e5c56631cacc00e9cb74c5d1c7084fbb5ed2e1699fa62806",
	}
	for arch, want := range golden {
		adv, err := New(gpu.MustLookup(arch))
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		var b bytes.Buffer
		if err := adv.Save(&b); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: Save bytes sha256 %s, want %s\n%s", arch, got, want, b.String())
		}
	}
}
