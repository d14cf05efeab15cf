package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/serve"
	"stronghold/internal/tensor"
)

// The simulation endpoints of stronghold-serve.
const (
	PathSolve    = "/v1/solve"
	PathWhatIf   = "/v1/whatif"
	PathCapacity = "/v1/capacity"
)

// Request is one HTTP request the load generator sends.
type Request struct {
	Path string
	Body []byte
	// Hot is the hot-set entry the request spells (serve-hot), or -1
	// for a request the workload never repeats.
	Hot int
}

// Canonical decodes and canonicalizes body with the serve layer's
// public canonicalizer for path, returning the canonical request and
// the cache key the server files its response under.
func Canonical(path string, body []byte) (any, string, error) {
	switch path {
	case PathSolve:
		return serve.CanonicalSolve(body)
	case PathWhatIf:
		return serve.CanonicalWhatIf(body)
	case PathCapacity:
		return serve.CanonicalCapacity(body)
	}
	return nil, "", fmt.Errorf("workload: unknown endpoint %q", path)
}

// Key identifies a canonical request by value: the endpoint plus its
// JSON encoding. A timing backend sees only the canonical request, so
// it matches its calls to requests by this key.
func Key(path string, canon any) string {
	b, err := json.Marshal(canon)
	if err != nil {
		// Canonical requests are plain data; Marshal cannot fail.
		panic("workload: canonical request marshal: " + err.Error())
	}
	return path + "\n" + string(b)
}

// Expected returns the exact body stronghold-serve must answer body
// with: a direct backend call on the canonical request, carrying its
// cache key hash, in the server's response encoding (two-space
// indented JSON and a trailing newline).
func Expected(b serve.Backend, path string, body []byte) ([]byte, error) {
	var resp any
	switch path {
	case PathSolve:
		req, hash, err := serve.CanonicalSolve(body)
		if err != nil {
			return nil, err
		}
		r, err := b.Solve(req)
		if err != nil {
			return nil, err
		}
		r.Hash = hash
		resp = r
	case PathWhatIf:
		req, hash, err := serve.CanonicalWhatIf(body)
		if err != nil {
			return nil, err
		}
		r, err := b.WhatIf(req)
		if err != nil {
			return nil, err
		}
		r.Hash = hash
		resp = r
	case PathCapacity:
		req, hash, err := serve.CanonicalCapacity(body)
		if err != nil {
			return nil, err
		}
		r, err := b.Capacity(req)
		if err != nil {
			return nil, err
		}
		r.Hash = hash
		resp = r
	default:
		return nil, fmt.Errorf("workload: unknown endpoint %q", path)
	}
	out, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// SimFor returns the simulation a request asks the backend for, for
// stage-by-stage timing: a what-if's clean run, or a solve's window
// decision (only its Solve stage applies). Capacity queries run no
// simulation.
func SimFor(path string, body []byte) (Sim, bool, error) {
	var (
		spec   modelcfg.ConfigSpec
		method string
		plat   string
		coopt  bool
	)
	switch path {
	case PathSolve:
		req, _, err := serve.CanonicalSolve(body)
		if err != nil {
			return Sim{}, false, err
		}
		spec, method, plat, coopt = req.Model, req.Method, req.Platform, req.CoOpt
	case PathWhatIf:
		req, _, err := serve.CanonicalWhatIf(body)
		if err != nil {
			return Sim{}, false, err
		}
		spec, method, plat = req.Model, req.Method, req.Platform
	default:
		return Sim{}, false, nil
	}
	m, err := modelcfg.ParseMethod(method)
	if err != nil {
		return Sim{}, false, err
	}
	p := hw.V100Platform()
	if plat == "a10-cluster" {
		p = hw.A10ClusterPlatform()
	}
	s, err := simFor(m, spec, p, coopt)
	return s, err == nil, err
}

// Serve-hot shape: 64 canonical requests, each sent in three spellings,
// drawn Zipf(1.1) for 90% of the traffic; the rest are solve requests
// the workload never repeats. The hot set fits the server's default
// 256-entry cache, so hits serve it without simulating.
const (
	hotSolves     = 40
	hotWhatIfs    = 16
	hotCapacities = 8
	hotShare      = 0.9
	hotZipfS      = 1.1
	hotSpellings  = 3
)

// HotEntry is one hot-set request in every spelling the workload sends.
type HotEntry struct {
	Path      string
	Spellings [hotSpellings][]byte
	Hash      string // the cache key every spelling canonicalizes to
}

// Hot is the serve-hot workload.
type Hot struct {
	Entries []HotEntry
	seed    uint64
	byRank  []int     // Zipf rank -> entry index, seeded
	cdf     []float64 // Zipf CDF over ranks
}

// singleNode lists the single-node methods in registry order.
func singleNode() []modelcfg.MethodInfo {
	var out []modelcfg.MethodInfo
	for _, info := range modelcfg.Methods() {
		if !info.Distributed {
			out = append(out, info)
		}
	}
	return out
}

// coldMethods are the plan-driven single-node methods what-if queries
// cover: STRONGHOLD, the system under study, on both tiers, and each
// comparison baseline once (ZeRO-Infinity on CPU memory).
var coldMethods = []modelcfg.Method{
	modelcfg.Stronghold, modelcfg.StrongholdNVMe, modelcfg.L2L,
	modelcfg.ZeROOffload, modelcfg.ZeROInfinity, modelcfg.InterleavedOpt,
}

// aliasFor is a spelling of the method other than its canonical key:
// a registered alias, else the display name in upper case.
func aliasFor(m modelcfg.Method) string {
	info := modelcfg.Lookup(m)
	if len(info.Aliases) > 0 {
		return info.Aliases[0]
	}
	return strings.ToUpper(info.Display)
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// faultPlan draws a slowdown window on one resource. The plan seed
// makes every plan distinct even when the windows coincide.
func faultPlan(r *tensor.RNG, seed uint64) string {
	targets := []string{"h2d", "d2h", "cpu"}
	dur := 20 + r.Intn(380)
	every := dur + 100 + r.Intn(900)
	factor := float64(20+r.Intn(61)) / 100
	return fmt.Sprintf("seed=%d;%s:slow(at=0s,dur=%dms,every=%dms,factor=%s)",
		seed, targets[r.Intn(len(targets))], dur, every, fmtFloat(factor))
}

// NewHot builds the serve-hot hot set for seed and checks that every
// spelling of an entry canonicalizes to the same cache key.
func NewHot(seed uint64) (*Hot, error) {
	r := rngFor(seed, streamHotSet)
	h := &Hot{seed: seed}
	seen := make(map[string]bool)
	add := func(path string, sp [hotSpellings]string) (bool, error) {
		var e HotEntry
		e.Path = path
		for i, s := range sp {
			e.Spellings[i] = []byte(s)
			_, hash, err := Canonical(path, e.Spellings[i])
			if err != nil {
				return false, fmt.Errorf("workload: hot %s spelling %d %s: %w", path, i, s, err)
			}
			if i == 0 {
				e.Hash = hash
			} else if hash != e.Hash {
				return false, fmt.Errorf("workload: hot %s spellings %q and %q canonicalize apart", path, sp[0], s)
			}
		}
		if seen[e.Hash] {
			return false, nil
		}
		seen[e.Hash] = true
		h.Entries = append(h.Entries, e)
		return true, nil
	}
	// Entries are stratified over their shape (the k-th draw takes the
	// k-th stratum), so every seed's set-up does about the same work.
	hiddens := []int{1024, 2048, 2560, 4096}
	for n, k := 0, 0; n < hotSolves; k++ {
		m := modelcfg.Stronghold
		if k%4 == 0 {
			m = modelcfg.StrongholdNVMe
		}
		key := modelcfg.MethodKey(m)
		layers := 8 + (k*113+r.Intn(113))/hotSolves
		hidden, batch := hiddens[k/4%len(hiddens)], 2<<(k%2)
		coopt := r.Intn(2) == 0
		ok, err := add(PathSolve, [hotSpellings]string{
			fmt.Sprintf(`{"model":{"layers":%d,"hidden":%d,"batch_size":%d,"model_parallel":1},"platform":"v100","method":%q,"coopt":%t}`,
				layers, hidden, batch, key, coopt),
			fmt.Sprintf("{\n  \"coopt\": %t,\n  \"method\" : %q,\n  \"model\": { \"model_parallel\": 1, \"batch_size\": %d, \"layers\": %d, \"hidden\": %d },\n  \"platform\": \"v100\"\n}\n",
				coopt, key, batch, layers, hidden),
			fmt.Sprintf(`{"method":%q,"platform":" V100 ","model":{"hidden":%d,"layers":%d,"batch_size":%d},"coopt":%t}`,
				aliasFor(m), hidden, layers, batch, coopt),
		})
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	for n, k := 0, 0; n < hotWhatIfs; k++ {
		m := coldMethods[k%len(coldMethods)]
		key := modelcfg.MethodKey(m)
		size := 0.5 + 2.5*(float64(k%hotWhatIfs)+r.Float64())/hotWhatIfs
		plan := faultPlan(r, uint64(k))
		spaced := strings.ReplaceAll(plan, ";", "; ")
		ok, err := add(PathWhatIf, [hotSpellings]string{
			fmt.Sprintf(`{"model":{"size_billions":%s,"hidden":2560,"batch_size":4,"model_parallel":1},"platform":"v100","method":%q,"faults":%q}`,
				fmtFloat(size), key, plan),
			fmt.Sprintf("{ \"faults\": %q,\n \"method\": %q, \"model\": {\"size_billions\": %s} }", plan, key, fmtFloat(size)),
			fmt.Sprintf(`{"platform":"V100","model":{"batch_size":4,"size_billions":%s},"faults":%q,"method":%q}`,
				fmtFloat(size), spaced, aliasFor(m)),
		})
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	methods := singleNode()
	for n := 0; n < hotCapacities; {
		var keys, aliases []string
		for _, info := range methods {
			if r.Intn(3) == 0 {
				keys = append(keys, info.Key)
				aliases = append(aliases, aliasFor(info.M))
			}
		}
		if len(keys) == 0 {
			continue
		}
		plat, platAlias := "v100", "V100"
		if r.Intn(2) == 0 {
			plat, platAlias = "a10-cluster", "a10"
		}
		rev := make([]string, len(keys))
		for i, k := range keys {
			rev[len(keys)-1-i] = k
		}
		ok, err := add(PathCapacity, [hotSpellings]string{
			fmt.Sprintf(`{"platform":%q,"methods":%s}`, plat, jsonList(keys)),
			fmt.Sprintf("{ \"methods\" : %s ,\n \"platform\": %q }", jsonList(rev), plat),
			fmt.Sprintf(`{"methods":%s,"platform":%q}`, jsonList(aliases), platAlias),
		})
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	h.byRank = make([]int, len(h.Entries))
	for i := range h.byRank {
		h.byRank[i] = i
	}
	shuffle(r, h.byRank)
	h.cdf = make([]float64, len(h.Entries))
	sum := 0.0
	for k := range h.cdf {
		sum += math.Pow(float64(k+1), -hotZipfS)
		h.cdf[k] = sum
	}
	for k := range h.cdf {
		h.cdf[k] /= sum
	}
	return h, nil
}

func jsonList(xs []string) string {
	b, err := json.Marshal(xs)
	if err != nil {
		panic("workload: string list marshal: " + err.Error())
	}
	return string(b)
}

// Request returns the i-th request of the serve-hot stream. It is a
// pure function of the seed and i, so concurrent clients may share one
// counter and the stream stays the same whoever sends each request.
func (h *Hot) Request(i int) Request {
	r := rngFor(h.seed, streamHotReq, uint64(i))
	if r.Float64() < hotShare {
		u := r.Float64()
		rank := sort.SearchFloat64s(h.cdf, u)
		if rank >= len(h.cdf) {
			rank = len(h.cdf) - 1
		}
		e := h.byRank[rank]
		return Request{Path: h.Entries[e].Path, Body: h.Entries[e].Spellings[r.Intn(hotSpellings)], Hot: e}
	}
	return Request{Path: PathSolve, Body: h.uniqueSolve(i, r), Hot: -1}
}

// uniqueSolve is a solve request no other index produces: its size is
// an odd-multiplier bijection of i (mod 2^32) scaled into [0.5, 20)
// billion parameters, and hot-set solves give layers, not a size.
func (h *Hot) uniqueSolve(i int, r *tensor.RNG) []byte {
	x := uint32(i)*2654435761 + uint32(h.seed)
	size := 0.5 + 19.5*float64(x)/(1<<32)
	m := "stronghold"
	if r.Intn(2) == 0 {
		m = "stronghold-nvme"
	}
	hidden := []int{2560, 4096}[r.Intn(2)]
	return []byte(fmt.Sprintf(`{"model":{"size_billions":%s,"hidden":%d},"method":%q,"coopt":%t}`,
		fmtFloat(size), hidden, m, r.Intn(2) == 0))
}

// Serve-cold deck: every ColdDeck requests hold exactly 42 what-ifs
// (seven per method), 12 solves and 6 capacity queries, shuffled.
// Fixed proportions keep the mix, and so the latency distribution, the
// same across seeds.
const (
	ColdDeck          = 60
	coldWhatIfs       = 7 // per method
	coldSolves        = 12
	coldCapacities    = 6
	coldMinBillions   = 0.5
	coldCapacityShare = 0.9
	// coldMaxBillions keeps one what-if under about 40 ms of host time
	// (STRONGHOLD at 12B), so the latency tail is set by serving, not by
	// the few largest configs a seed happens to draw.
	coldMaxBillions = 12
	coldHidden      = 2560
	coldBatch       = 4
)

// capacity returns the largest model, in billions of parameters, the
// method fits on the V100 server at the what-if shape (hidden 2560,
// batch 4) — the memory model the simulator checks before running.
func capacity(m modelcfg.Method) float64 {
	p := hw.V100Platform()
	return modelcfg.LargestTrainable(m, coldHidden, 1, []int{coldBatch}, 8,
		p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
}

// coldLimit is the largest size serve-cold asks about for a method:
// 0.9x its capacity, and at most 12 billion parameters.
func coldLimit(m modelcfg.Method) float64 {
	return min(coldCapacityShare*capacity(m), coldMaxBillions)
}

// logUniform maps u in [0, 1) onto [lo, hi) with a log-uniform density.
func logUniform(u, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// spread returns the k-th point of a base-2 van der Corput sequence
// rotated by shift: every prefix of k = 0, 1, 2, ... covers [0, 1)
// almost evenly, so any run's sizes follow the intended distribution
// far more closely than independent draws would. Distinct k below 2^53
// give distinct points.
func spread(k uint64, shift float64) float64 {
	u := float64(bits.Reverse64(k)>>11)/(1<<53) + shift
	return u - math.Floor(u)
}

// Cold is the serve-cold workload: what-ifs over the six plan-driven
// methods with seeded fault plans and sizes log-uniform in [0.5,
// coldLimit), solves for the STRONGHOLD methods, and capacity queries
// over sets of the registered methods. No request repeats another.
type Cold struct {
	seed   uint64
	limits []float64 // coldLimit per coldMethods entry
	combos []int     // capacity queries in seeded order: platform bit | method set
	shift  float64
}

// NewCold builds the serve-cold stream for seed.
func NewCold(seed uint64) *Cold {
	c := &Cold{seed: seed, shift: rngFor(seed, streamColdSize).Float64()}
	for _, m := range coldMethods {
		c.limits = append(c.limits, coldLimit(m))
	}
	c.combos = make([]int, 2*(1<<len(modelcfg.Methods())-1))
	for i := range c.combos {
		c.combos[i] = i
	}
	shuffle(rngFor(seed, streamColdCap), c.combos)
	return c
}

// Request returns the i-th request of the stream, a pure function of
// the seed and i. Once every distinct capacity query has been sent, a
// deck's capacity slots carry solves instead.
func (c *Cold) Request(i int) Request {
	deck, pos := i/ColdDeck, i%ColdDeck
	order := make([]int, ColdDeck)
	for k := range order {
		order[k] = k
	}
	shuffle(rngFor(c.seed, streamCold, uint64(deck)), order)
	slot := order[pos]
	r := rngFor(c.seed, streamCold, uint64(deck), uint64(slot))
	solve := func(mi int, k uint64) Request {
		size := logUniform(spread(k, c.shift), coldMinBillions, c.limits[mi])
		return Request{Path: PathSolve, Hot: -1, Body: []byte(fmt.Sprintf(
			`{"model":{"size_billions":%s,"hidden":%d,"batch_size":%d},"method":%q,"coopt":%t}`,
			fmtFloat(size), coldHidden, coldBatch, modelcfg.MethodKey(coldMethods[mi]), r.Intn(2) == 0))}
	}
	whatifs := len(coldMethods) * coldWhatIfs
	switch {
	case slot < whatifs:
		mi, j := slot/coldWhatIfs, slot%coldWhatIfs
		size := logUniform(spread(uint64(deck*coldWhatIfs+j), c.shift), coldMinBillions, c.limits[mi])
		plan := faultPlan(r, c.seed<<40|uint64(i))
		return Request{Path: PathWhatIf, Hot: -1, Body: []byte(fmt.Sprintf(
			`{"model":{"size_billions":%s,"hidden":%d,"batch_size":%d},"method":%q,"faults":%q}`,
			fmtFloat(size), coldHidden, coldBatch, modelcfg.MethodKey(coldMethods[mi]), plan))}
	case slot < whatifs+coldSolves:
		s := slot - whatifs
		// The two STRONGHOLD methods lead coldMethods.
		return solve(s%2, uint64(deck*coldSolves/2+s/2))
	}
	q := deck*coldCapacities + slot - whatifs - coldSolves
	if q >= len(c.combos) {
		// Past the distinct capacity queries: a solve from an index range
		// the regular solves never reach.
		return solve(slot%2, 1<<40+uint64(q))
	}
	combo := c.combos[q]
	plat := "v100"
	if combo&1 == 1 {
		plat = "a10-cluster"
	}
	set := combo>>1 + 1
	var keys []string
	for k, info := range modelcfg.Methods() {
		if set&(1<<k) != 0 {
			keys = append(keys, info.Key)
		}
	}
	return Request{Path: PathCapacity, Hot: -1, Body: []byte(fmt.Sprintf(
		`{"platform":%q,"methods":%s}`, plat, jsonList(keys)))}
}
