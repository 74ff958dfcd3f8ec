// Command planbench is the end-to-end planning benchmark. It starts an
// in-process dnnserve on loopback HTTP, drives one seeded, closed-loop
// workload at it, checks every response, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer ladder). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash planbench/run.sh --workload flat-paper --seed 1 --seconds 30 --trace 0
//
// Workloads: flat-paper, hier-topology, pipeline-sim, serve-repeat, or
// all (every workload in turn, metric names prefixed by the workload).
// --record lo-hi prints reference digests for a seed range instead of
// measuring; they belong in planbench/reference.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dnnparallel/internal/serve"
)

// The benchmark runs on one P. On a shared two-vCPU host, two Ps made
// each request wait on cross-CPU wake-ups and on whichever vCPU the host
// was stealing from, and the same runs spread several times wider. The
// planner's worker count follows GOMAXPROCS (search.workers is unset).
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, "|")+"|all")
	seed := flag.Int64("seed", 1, "seed the request set is generated from")
	seconds := flag.Float64("seconds", 30, "seconds of timed passes (whole passes, at least one)")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "repository root (golden scenarios are read from <root>/examples/scenarios)")
	record := flag.String("record", "", "seed range lo-hi: print reference digests instead of measuring")
	flag.Parse()

	if *record != "" {
		if err := recordDigests(*workload, *record, *root); err != nil {
			fmt.Fprintln(os.Stderr, "planbench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	fp := fmt.Sprintf("%s seed=%d", fingerprint(), *seed)
	fmt.Printf("fingerprint: %s\n", fp)
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		o := options{workload: name, seed: *seed, seconds: *seconds, root: *root, fingerprint: fp}
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(o)
		} else {
			res, err = runWorkload(o)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "planbench:", err)
			return 1
		}
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			out.Metrics[k] = m
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// options configures one workload run.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	root        string
	fingerprint string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one metric line (name, value, unit, sample count) and
// records it in the result.
func (r *result) report(name string, value float64, unit string, samples int) {
	fmt.Printf("  %-26s %14.6g %-6s n=%d\n", name, value, unit, samples)
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// A run sets up at least minSetups times and until setupSeconds are
// spent, at most maxSetups times; setup_s is the median.
const (
	minSetups    = 5
	maxSetups    = 41
	setupSeconds = 1.0
)

// warmups is the number of requests sent once before timing on the
// miss workloads (each timed pass starts from an empty cache).
const warmups = 3

// bench is one set-up workload: its requests, a running server, and on
// serve-repeat the cached response bytes every hit must reproduce.
type bench struct {
	reqs     []request
	srv      *server
	client   *client
	hit      bool              // serve-repeat: every timed request is a cache hit
	expected map[string][]byte // serve-repeat: canonical key → fill response
	fill     []response        // serve-repeat: fill responses, for checking
}

// close drops the client's idle connection and stops the server.
func (b *bench) close() error {
	b.client.hc.CloseIdleConnections()
	return b.srv.stop()
}

// setUp generates the requests, starts the server and client, sends the
// warm-up requests and, on serve-repeat, fills the cache with every
// question. It returns the bench and the seconds it took.
func setUp(o options) (*bench, float64, error) {
	start := time.Now()
	reqs, err := generate(o.workload, o.seed, o.root)
	if err != nil {
		return nil, 0, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	b := &bench{reqs: reqs, srv: srv, client: newClient(srv)}
	if o.workload == "serve-repeat" {
		b.hit = true
		b.expected = make(map[string][]byte)
		for _, req := range distinct(reqs) {
			resp := b.client.plan(req.Body)
			b.fill = append(b.fill, resp)
			b.expected[req.Key] = resp.Body
		}
	} else {
		for _, req := range reqs[:min(warmups, len(reqs))] {
			if resp := b.client.plan(req.Body); resp.Err != nil || resp.Status != 200 {
				b.close()
				return nil, 0, fmt.Errorf("warm-up %s failed: status %d %v", req.Name, resp.Status, resp.Err)
			}
		}
	}
	return b, time.Since(start).Seconds(), nil
}

// setUpRepeated sets up as often as minSetups, maxSetups and
// setupSeconds ask, keeps the last bench, and returns every set-up time.
func setUpRepeated(o options) (*bench, []float64, error) {
	var times []float64
	var b *bench
	start := time.Now()
	for i := 0; i < minSetups || i < maxSetups && time.Since(start).Seconds() < setupSeconds; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		var s float64
		var err error
		if b, s, err = setUp(o); err != nil {
			return nil, nil, err
		}
		times = append(times, s)
	}
	return b, times, nil
}

// distinct returns the requests with a canonical key not seen earlier
// in the list, in order.
func distinct(reqs []request) []request {
	seen := make(map[string]bool)
	var out []request
	for _, r := range reqs {
		if !seen[r.Key] {
			seen[r.Key] = true
			out = append(out, r)
		}
	}
	return out
}

// tally accumulates a run's checked outcomes.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err)
		}
	}
}

// runPass sends every request once, in order, and returns the responses
// and the pass's wall time.
func (b *bench) runPass() ([]response, float64) {
	resps := make([]response, len(b.reqs))
	start := time.Now()
	for i, req := range b.reqs {
		resps[i] = b.client.plan(req.Body)
	}
	return resps, time.Since(start).Seconds()
}

// checkPass checks a pass's responses and returns the winners of the
// distinct questions in order. On serve-repeat a hit must reproduce the
// checked fill response byte for byte.
func (b *bench) checkPass(resps []response, t *tally) []winner {
	var ws []winner
	seen := make(map[string]bool)
	for i, req := range b.reqs {
		resp := resps[i]
		if b.hit {
			err := checkHit(req, resp, b.expected[req.Key])
			t.add(err)
			continue
		}
		w, err := checkResponse(req, resp, "miss")
		t.add(err)
		if !seen[req.Key] {
			seen[req.Key] = true
			ws = append(ws, w)
		}
	}
	return ws
}

func checkHit(req request, resp response, want []byte) error {
	switch {
	case resp.Err != nil:
		return fmt.Errorf("%s: %w", req.Name, resp.Err)
	case resp.Status != 200 || resp.ContentType != "application/json":
		return fmt.Errorf("%s: status %d, content type %q", req.Name, resp.Status, resp.ContentType)
	case resp.Cache != "hit":
		return fmt.Errorf("%s: X-Cache %q, want hit", req.Name, resp.Cache)
	case string(resp.Body) != string(want):
		return fmt.Errorf("%s: hit body differs from the checked fill response", req.Name)
	}
	return nil
}

// fillWinners checks serve-repeat's fill responses (all misses) and
// returns their winners.
func (b *bench) fillWinners(t *tally) []winner {
	var ws []winner
	for i, req := range distinct(b.reqs) {
		w, err := checkResponse(req, b.fill[i], "miss")
		if err != nil {
			t.add(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// countCache empties the cache on the miss workloads, runs send between
// two /healthz reads, adds the cache counter movement to d, and returns
// the evictions send caused.
func (b *bench) countCache(d *cacheDelta, send func()) (int64, error) {
	if !b.hit {
		b.srv.reset()
	}
	before, err := b.client.cacheStats()
	if err != nil {
		return 0, err
	}
	send()
	after, err := b.client.cacheStats()
	if err != nil {
		return 0, err
	}
	d.add(before, after)
	return after.Evictions - before.Evictions, nil
}

// cacheDelta is the cache counter movement of the timed phase.
type cacheDelta struct{ hits, misses, coalesced int64 }

func (d *cacheDelta) add(before, after serve.CacheStats) {
	d.hits += after.Hits - before.Hits
	d.misses += after.Misses - before.Misses
	d.coalesced += after.Coalesced - before.Coalesced
}

func (d cacheDelta) hitRatio() float64 {
	n := d.hits + d.misses + d.coalesced
	if n == 0 {
		return 0
	}
	return float64(d.hits) / float64(n)
}

// runWorkload is the untraced run: set up, timed passes until the time
// is spent, checks, and the end-to-end metrics.
func runWorkload(o options) (result, error) {
	fmt.Printf("workload %s seed %d: end-to-end\n", o.workload, o.seed)
	b, setups, err := setUpRepeated(o)
	if err != nil {
		return result{}, err
	}
	var t tally
	var fillWs []winner
	if b.hit {
		fillWs = b.fillWinners(&t)
	}
	var passes []passStat
	var wall float64
	var alloc uint64
	var cpu float64
	var timed int
	var cache cacheDelta
	var passDigests []string
	cpu0, steal0 := cpuTimes()
	// Whole passes over the same fixed request set while the next one,
	// checks included, at the mean time so far, still ends within the
	// time.
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds()*float64(pass+1)/float64(pass) <= o.seconds; pass++ {
		var resps []response
		var ps passStat
		var secs float64
		var m0, m1 runtime.MemStats
		_, err := b.countCache(&cache, func() {
			runtime.ReadMemStats(&m0)
			c0 := cpuSeconds()
			resps, secs = b.runPass()
			cpu += cpuSeconds() - c0
			runtime.ReadMemStats(&m1)
		})
		if err != nil {
			b.close()
			return result{}, err
		}
		wall += secs
		alloc += m1.TotalAlloc - m0.TotalAlloc
		ps.lat = make([]float64, len(resps))
		for i, r := range resps {
			ps.lat[i] = r.Seconds
		}
		timed += len(resps)
		n0 := t.failed
		ws := b.checkPass(resps, &t)
		ps.ok = len(resps) - (t.failed - n0)
		passes = append(passes, ps)
		if !b.hit {
			passDigests = append(passDigests, digest(ws))
		}
	}
	cpu1, steal1 := cpuTimes()
	if err := b.close(); err != nil {
		return result{}, err
	}
	if cpu1 > cpu0 {
		fmt.Printf("  cpu steal during the timed passes: %.1f%%\n", 100*float64(steal1-steal0)/float64(cpu1-cpu0))
	}
	runDigest := digest(fillWs)
	if !b.hit {
		runDigest = passDigests[0]
	}
	correct := true
	for _, d := range passDigests {
		if d != runDigest {
			correct = false
			t.errs = append(t.errs, errors.New("winners differ between passes"))
		}
	}
	if err := verifyDigest(o, b.reqs, runDigest); err != nil {
		correct = false
		t.errs = append(t.errs, err)
	}
	if !correct {
		t.failed = t.attempted // a digest mismatch fails the whole run
	}
	correct = correct && t.failed == 0
	for _, err := range t.errs {
		fmt.Printf("  FAIL %v\n", err)
	}
	fmt.Printf("  digest %s, %d requests per pass, cache hit ratio %.3f\n",
		runDigest, len(b.reqs), cache.hitRatio())

	res := result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	// Latency percentiles and the rate pool every timed pass.
	var lat []float64
	var ok int
	for _, p := range passes {
		lat = append(lat, p.lat...)
		ok += p.ok
	}
	fmt.Printf("  %d timed requests in %d passes of %d, %.1f s, %.4g ms of CPU time per plan\n",
		timed, len(passes), len(b.reqs), wall, cpu*1e3/float64(timed))
	res.report("latency_p50_ms", quantile(lat, 0.5)*1e3, "ms", len(lat))
	res.report("latency_p90_ms", quantile(lat, 0.9)*1e3, "ms", len(lat))
	res.report("plans_per_s", float64(ok)/wall, "1/s", ok)
	fmt.Printf("  %-26s %14.6g %-6s n=%d\n", "failed_frac", float64(t.failed)/float64(t.attempted), "ratio", t.attempted)
	res.report("alloc_kb_per_req", float64(alloc)/1024/float64(timed), "KB", timed)
	res.report("setup_s", quantile(setups, 0.5), "s", len(setups))
	return res, nil
}

// passStat is one timed pass: its request latencies and verified
// responses.
type passStat struct {
	lat []float64
	ok  int
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// fingerprint describes the machine a run measured on.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s gomaxprocs=%d",
		runtime.NumCPU(), cpu, runtime.Version(), runtime.GOMAXPROCS(0))
}

// cpuTimes returns the machine's total and hypervisor-stolen CPU time
// from /proc/stat, in clock ticks (zeros where it is unavailable). A run
// whose timed passes lost much CPU to steal measured a busy host.
func cpuTimes() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuSeconds returns the CPU time, user and system, this process has
// used: the server's and the client's work, with the garbage collector's.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// parseRange parses "lo-hi" (or a single seed).
func parseRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseInt(a, 10, 64); err == nil {
		hi, err = strconv.ParseInt(b, 10, 64)
	}
	if err != nil || hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q (want lo-hi)", s)
	}
	return lo, hi, nil
}
