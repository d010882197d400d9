package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/gpu"
	"gpuhms/internal/service"
)

// clients is the closed loop's size: the advisor's callers are compile and
// autotune pipelines that block on each answer, and the benchmark is sized
// for a two-CPU machine.
const clients = 2

// serviceOptions pins the pool to one worker per client and every search to
// one worker, so pool × parallelism equals the two CPUs on any machine and
// the traced replay can use the same values.
var serviceOptions = service.Options{Workers: clients, Parallelism: 1}

// Golden outputs checked on every reply that carries them.
const (
	goldenSpmvK80NS     = 9494.25441100835 // k80 spmv exhaustive top-1 predicted_ns
	goldenTableK80      = "table:T,in:S,out:S"
	goldenTableChiplet  = "table:S,in:S,out:S"
	cacheHeader         = "X-HMS-Cache"
	maxFailuresRecorded = 20
)

// env holds the trained advisors every service of a run is built over.
type env struct {
	advisors map[string]*advisor.Advisor
}

// interval is a stretch of a run on its stealClock's time base.
type interval struct{ start, end time.Duration }

// setup trains one advisor per arch the way cmd/hmsserved does (at most
// NumCPU at once), then builds a service over them and marks it ready. It
// returns the per-arch training times and the interval the whole step took.
func setup(clk *stealClock) (*env, *service.Server, map[string]float64, interval, error) {
	start := clk.now()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		advisors = make(map[string]*advisor.Advisor, len(arches))
		trainS   = make(map[string]float64, len(arches))
		sem      = make(chan struct{}, max(1, runtime.NumCPU()))
	)
	for _, name := range sortedArches() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			adv, err := advisor.New(gpu.MustLookup(name))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("training %s: %w", name, err)
				}
				return
			}
			advisors[name] = adv
			trainS[name] = time.Since(t0).Seconds()
		}(name)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, nil, interval{}, firstErr
	}
	e := &env{advisors: advisors}
	svc, err := e.newService()
	if err != nil {
		return nil, nil, nil, interval{}, err
	}
	return e, svc, trainS, interval{start, clk.now()}, nil
}

func (e *env) newService() (*service.Server, error) {
	svc, err := service.New(e.advisors, serviceOptions, nil)
	if err != nil {
		return nil, err
	}
	svc.MarkReady()
	return svc, nil
}

func sortedArches() []string {
	out := append([]string(nil), arches...)
	sort.Strings(out)
	return out
}

// recorder is the in-process ResponseWriter: it keeps status, headers and
// body so the client can check the reply after the clock stops.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }
func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *recorder) reset() {
	w.hdr = make(http.Header, 4)
	w.status = 0
	w.body.Reset()
}

// httpRequest builds the handler's request, before any clock starts.
func httpRequest(r *request) *http.Request {
	hr := &http.Request{
		Method:     r.method,
		URL:        &url.URL{Path: r.path},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       "perfbench",
		RemoteAddr: "127.0.0.1:0",
		Body:       http.NoBody,
	}
	if r.body != nil {
		hr.Body = io.NopCloser(bytes.NewReader(r.body))
		hr.ContentLength = int64(len(r.body))
	}
	return hr.WithContext(context.Background())
}

// failures collects failed output checks from concurrent clients.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < maxFailuresRecorded {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// sent is what the window keeps of one reply.
type sent struct {
	interval // handler entry to return
	post     bool
	hit      bool
}

// loop runs the closed loop: each client takes the next position from a
// shared counter, sends it straight into its handler, and calls visit once
// the reply's interval has been taken. take reports the handler and request
// at a position, or false when the loop is done. It returns the replies indexed
// by position, up to the first position a client took but did not send: a
// client that takes a position just as the window closes skips it while the
// other may still send a later one.
func loop(clk *stealClock, take func(pos int) (http.Handler, *request, bool), visit func(pos int, r *request, w *recorder)) []sent {
	var next atomic.Int64
	per := make([][]struct {
		pos int
		s   sent
	}, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &recorder{}
			for {
				pos := int(next.Add(1) - 1)
				h, r, ok := take(pos)
				if !ok {
					return
				}
				w.reset()
				hr := httpRequest(r)
				start := clk.now()
				h.ServeHTTP(w, hr)
				end := clk.now()
				per[c] = append(per[c], struct {
					pos int
					s   sent
				}{pos, sent{interval{start, end}, r.method == http.MethodPost, w.hdr.Get(cacheHeader) == "hit"}})
				visit(pos, r, w)
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for _, p := range per {
		for _, x := range p {
			n = max(n, x.pos+1)
		}
	}
	out := make([]sent, n)
	done := make([]bool, n)
	for _, p := range per {
		for _, x := range p {
			out[x.pos], done[x.pos] = x.s, true
		}
	}
	for i, ok := range done {
		if !ok {
			return out[:i]
		}
	}
	return out
}

// checkReply applies the output checks to one reply and returns it decoded.
// wantCache is the X-HMS-Cache value every POST must carry.
func checkReply(r *request, w *recorder, wantCache string) (*reply, error) {
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", w.status, strings.TrimSpace(w.body.String()))
	}
	if r.method == http.MethodPost {
		if got := w.hdr.Get(cacheHeader); got != wantCache {
			return nil, fmt.Errorf("%s = %q, want %q", cacheHeader, got, wantCache)
		}
	}
	rep, err := decodeReply(r.kind, w.body.Bytes())
	if err != nil {
		return nil, err
	}
	return rep, checkGolden(r, rep)
}

// ranking is one arch's ranked rows in a rank or compare reply.
type ranking struct {
	arch, kernel string
	scale        int
	sample       string
	rows         []service.RankedPlacement
}

// reply is a decoded answer: the rankings of a rank or compare reply, or a
// fleet reply. GET replies decode to an empty reply.
type reply struct {
	rankings []ranking
	fleet    *service.FleetRankResponse
}

// decodeReply unmarshals a reply once and fails on a malformed or empty
// answer or an unsorted ranking.
func decodeReply(kind string, body []byte) (*reply, error) {
	rep := &reply{}
	switch kind {
	case kindRank:
		var resp service.RankResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		rep.rankings = []ranking{{resp.Arch, resp.Kernel, resp.Scale, resp.Sample, resp.Ranked}}
	case kindCompare:
		var resp service.CompareResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) == 0 {
			return nil, fmt.Errorf("compare reply without results")
		}
		for _, res := range resp.Results {
			rep.rankings = append(rep.rankings, ranking{res.Arch, resp.Kernel, resp.Scale, res.Sample, res.Ranked})
		}
	case kindFleet:
		var resp service.FleetRankResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Tenants) == 0 || !(resp.ObjectiveValue >= 1) {
			return nil, fmt.Errorf("fleet reply with %d tenants, objective %v", len(resp.Tenants), resp.ObjectiveValue)
		}
		rep.fleet = &resp
	case kindKernels:
		var resp service.KernelsResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Kernels) == 0 {
			return nil, fmt.Errorf("bad kernels reply (%v)", err)
		}
	case kindArches:
		var resp service.ArchesResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Arches) != len(arches) {
			return nil, fmt.Errorf("bad arches reply (%v)", err)
		}
	}
	for _, rk := range rep.rankings {
		if len(rk.rows) == 0 {
			return nil, fmt.Errorf("arch %s: empty ranking", rk.arch)
		}
		for i, row := range rk.rows {
			if !(row.PredictedNS > 0) || math.IsInf(row.PredictedNS, 0) ||
				(i > 0 && row.PredictedNS < rk.rows[i-1].PredictedNS) {
				return nil, fmt.Errorf("arch %s ranking row %d: bad or unsorted predicted_ns %v", rk.arch, i, row.PredictedNS)
			}
		}
	}
	return rep, nil
}

// top1 summarizes the answer: each ranking's best placement with its
// prediction, or each fleet tenant's assignment; "" for a GET reply.
func (rep *reply) top1() string {
	ns := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var parts []string
	for _, rk := range rep.rankings {
		parts = append(parts, rk.arch+" "+rk.rows[0].Placement+"@"+ns(rk.rows[0].PredictedNS))
	}
	if f := rep.fleet; f != nil {
		parts = append(parts, f.Arch+" objective@"+ns(f.ObjectiveValue))
		for _, t := range f.Tenants {
			parts = append(parts, t.Tenant+"="+t.Placement+"@"+ns(t.PredictedNS))
		}
	}
	return strings.Join(parts, "; ")
}

// checkGolden pins the two golden answers: the k80 spmv exhaustive top-1
// prediction and the tablelookup k80-versus-chiplet top-1 divergence.
func checkGolden(r *request, rep *reply) error {
	switch r.kind {
	case kindRank:
		req, err := service.DecodeRankRequest(r.body)
		if err != nil {
			return err
		}
		if req.Arch != "k80" || req.Kernel != "spmv" || req.Strategy != "exhaustive" || req.Scale != 1 || req.Sample != "" {
			return nil
		}
		if got := rep.rankings[0].rows[0].PredictedNS; got != goldenSpmvK80NS {
			return fmt.Errorf("k80 spmv exhaustive top-1 %v ns, golden %v", got, goldenSpmvK80NS)
		}
	case kindCompare:
		req, err := service.DecodeCompareRequest(r.body)
		if err != nil {
			return err
		}
		if req.Kernel != "tablelookup" || req.Scale != 1 || req.Sample != "" {
			return nil
		}
		want := map[string]string{"k80": goldenTableK80, "chiplet": goldenTableChiplet}
		for _, rk := range rep.rankings {
			if g, ok := want[rk.arch]; ok {
				if rk.rows[0].Placement != g {
					return fmt.Errorf("tablelookup %s top-1 %s, golden %s", rk.arch, rk.rows[0].Placement, g)
				}
				delete(want, rk.arch)
			}
		}
		if len(want) > 0 {
			return fmt.Errorf("tablelookup compare reply lacks %d golden arch(es)", len(want))
		}
	}
	return nil
}
