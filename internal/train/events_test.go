package train

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/perf"
)

// eventsGoldenPath holds the model-vs-simulator event oracle's record: one
// "sha256 <arch> <hex>" line per arch over both sides' event vectors, and one
// "diverge <arch> <kernel> <counter> <ratio>" line per allowlisted
// divergence.
const eventsGoldenPath = "testdata/model_events.golden"

// TestModelEventsMatchSimulator is the event-level differential oracle: for
// every bundled kernel and every placement its Table IV tests keep on the
// arch (the sample included), an untrained full model profiled on the sample
// predicts perf.Events, and the simulator measures them. The two share one
// vocabulary, so they are compared counter by counter (perf.Events.All).
//
// A (arch, kernel, counter) agrees when the model equals the simulator on
// every placement. Every one that does not is on the allowlist in
// eventsGoldenPath with its model/simulator ratio of sums over the
// placements; an unlisted divergence fails, and so does a listed one that
// now agrees, so the list only shrinks and always says what is true. One
// SHA-256 per arch over both sides' vectors also pins the values, so a change
// to counting that moves the model and the simulator alike still fails.
// Under -race or -short only k80 runs.
func TestModelEventsMatchSimulator(t *testing.T) {
	shas, allowed := readEventsGolden(t)
	arches := []string{"k80", "fermi", "hbm", "chiplet"}
	if raceEnabled || testing.Short() {
		arches = arches[:1]
	}
	for _, arch := range arches {
		sum, diverged := eventOracle(t, arch)
		if sum != shas[arch] {
			t.Errorf("%s: event vectors moved: sha256 %s, golden %s; recorded now, the arch's lines would read:\n%s",
				arch, sum, shas[arch], renderEventsGolden(arch, sum, diverged))
		}
		for key, ratio := range diverged {
			want, ok := allowed[key]
			switch {
			case !ok:
				t.Errorf("new divergence %s (model/simulator %s): the allowlist may only shrink", key, ratio)
			case want != ratio:
				t.Errorf("divergence %s moved: model/simulator %s, allowlist %s", key, ratio, want)
			}
		}
		for key := range allowed {
			if _, ok := diverged[key]; !ok && strings.HasPrefix(key, arch+" ") {
				t.Errorf("%s now agrees: remove it from %s", key, eventsGoldenPath)
			}
		}
	}
}

// eventOracle predicts and measures every test placement of every kernel on
// one arch. It returns the SHA-256 over both sides' event vectors and the
// divergent "arch kernel counter" keys with their formatted ratios.
func eventOracle(t *testing.T, arch string) (string, map[string]string) {
	t.Helper()
	cfg := gpu.MustLookup(arch)
	s := New(cfg, 1)
	untrained := core.NewModel(cfg, core.FullOptions())
	names := kernels.Names()
	tests := make([]*Tests, len(names))
	var cases []Case
	for i, name := range names {
		k, err := s.Tests(name)
		if err != nil {
			t.Fatalf("%s/%s: %v", arch, name, err)
		}
		tests[i] = k
		for _, pl := range k.Placements {
			cases = append(cases, Case{Kernel: name, Trace: k.Trace, Sample: k.Sample, Target: pl})
		}
	}
	if err := s.Prewarm(cases); err != nil {
		t.Fatalf("%s: %v", arch, err)
	}

	h := sha256.New()
	diverged := map[string]string{}
	for i, name := range names {
		k := tests[i]
		prof, err := s.Measure(name, k.Sample, k.Sample)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.NewPredictor(untrained, k.Trace, k.Sample,
			core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
		if err != nil {
			t.Fatalf("%s/%s: %v", arch, name, err)
		}
		var model, measured []float64
		var differs []bool
		for _, pl := range k.Placements {
			pred, err := pr.Predict(pl)
			if err != nil {
				t.Fatalf("%s/%s %s: %v", arch, name, pl, err)
			}
			meas, err := s.Measure(name, k.Sample, pl)
			if err != nil {
				t.Fatal(err)
			}
			mv, sv := pred.Events.All(), meas.Events.All()
			if model == nil {
				n := len(mv)
				model, measured, differs = make([]float64, n), make([]float64, n), make([]bool, n)
			}
			fmt.Fprintf(h, "%s %s\n", name, pl)
			for i := range mv {
				fmt.Fprintf(h, "%s %g %g\n", mv[i].Name, mv[i].Value, sv[i].Value)
				model[i] += mv[i].Value
				measured[i] += sv[i].Value
				differs[i] = differs[i] || mv[i].Value != sv[i].Value
			}
		}
		for i, nv := range (&perf.Events{}).All() {
			if differs[i] {
				diverged[arch+" "+name+" "+nv.Name] = formatRatio(model[i], measured[i])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), diverged
}

// formatRatio prints model/simulator to four significant digits; a counter
// the simulator never saw reads "inf".
func formatRatio(model, measured float64) string {
	if measured == 0 {
		return "inf"
	}
	return strconv.FormatFloat(model/measured, 'g', 4, 64)
}

// readEventsGolden loads the per-arch hashes and the divergence allowlist.
func readEventsGolden(t *testing.T) (shas, allowed map[string]string) {
	t.Helper()
	f, err := os.Open(eventsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shas, allowed = map[string]string{}, map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		switch {
		case len(fs) == 3 && fs[0] == "sha256":
			shas[fs[1]] = fs[2]
		case len(fs) == 5 && fs[0] == "diverge":
			allowed[strings.Join(fs[1:4], " ")] = fs[4]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return shas, allowed
}

// renderEventsGolden formats one arch's oracle result in the golden's line
// syntax, divergences sorted, for recording a new golden.
func renderEventsGolden(arch, sum string, diverged map[string]string) string {
	keys := make([]string, 0, len(diverged))
	for k := range diverged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "sha256 %s %s\n", arch, sum)
	for _, k := range keys {
		fmt.Fprintf(&b, "diverge %s %s\n", k, diverged[k])
	}
	return b.String()
}
