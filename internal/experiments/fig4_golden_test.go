package experiments

import (
	"strconv"
	"testing"

	"gpuhms/internal/gpu"
)

// fig4Golden pins every Fig 4 row on the registered architectures: the
// per-bank c_a mean and cross-bank spread, the mean inter-arrival gap and the
// number of gaps. Floats are the shortest round-trip decimal
// (strconv 'g', -1), so any change to the simulator's DRAM request stream or
// to the c_a arithmetic shows up here bit for bit.
var fig4Golden = []struct {
	arch, kernel          string
	caMean, caStd, meanNS string
	samples               int
}{
	{"k80", "spmv", "5.064206226398912", "1.5111452737901327", "5.27317039313518", 5532},
	{"k80", "md", "4.689326075769086", "0.2444608622803275", "4.335739357413659", 4351},
	{"k80", "matrixMul", "2.3200933059555133", "1.3272690292677154", "36.05899577740483", 383},
	{"fermi", "spmv", "3.785969849501966", "0.47927091945544525", "2.3949235266396185", 65965},
	{"fermi", "md", "4.672431985018457", "0.24192117996439713", "3.770627441967372", 4351},
	{"fermi", "matrixMul", "2.2721508671140582", "1.383350833239142", "25.811329322284035", 383},
	{"hbm", "spmv", "4.360391436078921", "1.060125339436398", "1.461013250398557", 5532},
	{"hbm", "md", "2.62946042730614", "0.009609121162146819", "2.4116419712405124", 4351},
	{"hbm", "matrixMul", "1.6107118129848448", "0.7357233747055067", "12.270061971122086", 383},
	{"chiplet", "spmv", "4.3893486725964825", "1.0866549788282902", "2.341453667163229", 5532},
	{"chiplet", "md", "2.631528906208983", "0.009561582585188789", "2.4776841219163046", 4351},
	{"chiplet", "matrixMul", "1.6007561098678316", "0.7759344345460136", "12.24052345150838", 383},
}

// TestFig4Golden pins the Fig 4 inter-arrival study on every architecture.
func TestFig4Golden(t *testing.T) {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	rows := map[string]Fig4Row{}
	for _, arch := range []string{"k80", "fermi", "hbm", "chiplet"} {
		rep, err := NewContext(gpu.MustLookup(arch), 1).Fig4()
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if len(rep.Rows) != len(Fig4Kernels) {
			t.Fatalf("%s: %d rows, want %d", arch, len(rep.Rows), len(Fig4Kernels))
		}
		for _, r := range rep.Rows {
			rows[arch+"/"+r.Kernel] = r
		}
	}
	for _, w := range fig4Golden {
		r, ok := rows[w.arch+"/"+w.kernel]
		if !ok {
			t.Errorf("%s/%s: no row", w.arch, w.kernel)
			continue
		}
		if got := g(r.CaMean); got != w.caMean {
			t.Errorf("%s/%s CaMean = %s, golden %s", w.arch, w.kernel, got, w.caMean)
		}
		if got := g(r.CaStd); got != w.caStd {
			t.Errorf("%s/%s CaStd = %s, golden %s", w.arch, w.kernel, got, w.caStd)
		}
		if got := g(r.MeanNS); got != w.meanNS {
			t.Errorf("%s/%s MeanNS = %s, golden %s", w.arch, w.kernel, got, w.meanNS)
		}
		if r.Samples != w.samples {
			t.Errorf("%s/%s Samples = %d, golden %d", w.arch, w.kernel, r.Samples, w.samples)
		}
	}
}
