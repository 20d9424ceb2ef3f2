package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dllite"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/server"
)

const (
	// defaultScale is the LUBM∃ size in universities (about 17.5k facts).
	defaultScale = 16
	// dataSeed is the LUBM∃ generator's seed. The data stays the same
	// across workload seeds, which vary only the traffic: request order,
	// bound individuals, client sequences and insert batches.
	dataSeed = 1
	// defaultSetups is how many times a run sets up; setup_s is the
	// median. A process's first set-ups run slower while its heap
	// grows, so the median needs enough later ones to be steady.
	defaultSetups = 41
	// shardCount is the shard backend's fan-out in every workload.
	shardCount = 2
	// coldLimit caps the precomputed first-seen request sequence.
	coldLimit = 4000
	// readsPerWrite is how many reads update-mix sends between two
	// insert batches.
	readsPerWrite = 2
	// studentsPerBatch is the size of one enrolment insert batch.
	studentsPerBatch = 2
	// setupWrites is how many insert batches cold-plan and warm-repeat
	// apply to each timed set-up's database once its server is closed,
	// so their result carries write_p50_ms like every workload's: 200
	// samples over the 40 set-ups that do not serve the phase.
	setupWrites = 5
	// heapReads is the timed read after which heap_live_mb is taken:
	// the answer cache's capacity. cold-plan's memos keep growing with
	// every first-seen read, so a heap taken at the end of the phase
	// would grow with throughput and make a speed-up read as a memory
	// regression; a fixed read count measures a fixed amount of work.
	heapReads = 256
	// warmClients is warm-repeat's closed-loop client count.
	warmClients = 2
)

// strategies are the cover-search strategies every workload sends.
var strategies = []string{"gdl-ext", "gdl-rdbms"}

// request is one POST /query payload.
type request struct {
	server.QueryRequest
	body []byte // the encoded payload
}

func newRequest(q, strategy, backend string) request {
	r := request{QueryRequest: server.QueryRequest{Query: q, Strategy: strategy, Backend: backend}}
	body, err := json.Marshal(r.QueryRequest)
	if err != nil {
		panic(err) // a struct of strings always encodes
	}
	r.body = body
	return r
}

// step is one client action: a read of script.reqs[read], or, when
// read < 0, the insert batch numbered write.
type step struct{ read, write int }

// script is one phase's seeded traffic. Building it twice from the
// same seed gives the same requests and the same client sequences.
type script struct {
	reqs    []request
	warmup  []int                 // read sequentially, untimed, before the phase
	clients []func() (step, bool) // one sequence per closed-loop client
}

// workloadSpec describes one workload.
type workloadSpec struct {
	name     string
	clients  int
	backends []string // warmed up during set-up
	writes   bool     // insert batches interleave with the reads
	script   func(d *dataset, seed int64) *script
}

var workloads = map[string]*workloadSpec{
	"cold-plan":   {name: "cold-plan", clients: 1, backends: []string{"native", "shard"}, script: coldScript},
	"warm-repeat": {name: "warm-repeat", clients: warmClients, backends: []string{"native", "shard"}, script: warmScript},
	"update-mix":  {name: "update-mix", clients: 1, backends: []string{"native"}, writes: true, script: updateScript},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// dataset is the LUBM∃ ABox with the indexes the request and batch
// generators draw individuals from. The ABox is always generated with
// dataSeed; seed drives the traffic drawn from it.
type dataset struct {
	scale  int
	seed   int64 // the workload seed
	abox   *dllite.ABox
	byPred map[string][]dllite.Assertion
	depts  []string
	course map[string][]string // department → courses it offers
	staff  map[string][]string // department → people working for it
}

func newDataset(scale int, seed int64) *dataset {
	d := &dataset{
		scale:  scale,
		seed:   seed,
		abox:   lubm.GenerateABox(lubm.Config{Universities: scale, Seed: dataSeed}),
		byPred: make(map[string][]dllite.Assertion),
		course: make(map[string][]string),
		staff:  make(map[string][]string),
	}
	for _, as := range d.abox.Assertions {
		d.byPred[as.Pred] = append(d.byPred[as.Pred], as)
		switch as.Pred {
		case "Department":
			d.depts = append(d.depts, as.S)
		case "offeredBy":
			d.course[as.O] = append(d.course[as.O], as.S)
		case "worksFor":
			d.staff[as.O] = append(d.staff[as.O], as.S)
		}
	}
	return d
}

// warmRequests is the repeated request set: every template, unbound,
// under every strategy on every given backend.
func warmRequests(backends []string) []request {
	var out []request
	for _, q := range lubm.Queries() {
		for _, s := range strategies {
			for _, b := range backends {
				out = append(out, newRequest(q.String(), s, b))
			}
		}
	}
	return out
}

// bindings returns, shuffled, the queries a template yields when one
// of its variables is bound to an individual of the data. The variable
// is fixed per template: the non-head join variable with the most
// candidate values, or the non-head variable with the most when the
// template has no such join variable. Its candidates are the
// individuals at its position in the facts of the atoms it occurs in.
func (d *dataset) bindings(q query.CQ, rng *rand.Rand) []string {
	head := map[string]bool{}
	for _, h := range q.Head {
		head[h.Name] = true
	}
	occurs := map[string]int{}
	values := map[string]map[string]bool{}
	for _, a := range q.Atoms {
		for pos, t := range a.Args {
			if t.Const || head[t.Name] {
				continue
			}
			occurs[t.Name]++
			if values[t.Name] == nil {
				values[t.Name] = map[string]bool{}
			}
			for _, as := range d.byPred[a.Pred] {
				if pos == 0 {
					values[t.Name][as.S] = true
				} else {
					values[t.Name][as.O] = true
				}
			}
		}
	}
	best, bestJoin := "", false
	for v := range occurs {
		join := occurs[v] > 1
		switch {
		case best == "", join && !bestJoin:
		case join != bestJoin, len(values[v]) < len(values[best]):
			continue
		case len(values[v]) == len(values[best]) && v > best:
			continue
		}
		best, bestJoin = v, join
	}
	out := make([]string, 0, len(values[best]))
	for c := range values[best] {
		out = append(out, c)
	}
	sort.Strings(out)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i, c := range out {
		out[i] = bind(q, best, c).String()
	}
	return out
}

// bind replaces variable v by the constant c throughout q.
func bind(q query.CQ, v, c string) query.CQ {
	b := query.CQ{Name: q.Name, Head: q.Head, Atoms: make([]query.Atom, len(q.Atoms))}
	for i, a := range q.Atoms {
		args := make([]query.Term, len(a.Args))
		for j, t := range a.Args {
			if t.IsVar() && t.Name == v {
				t = query.Cst(c)
			}
			args[j] = t
		}
		b.Atoms[i] = query.Atom{Pred: a.Pred, Args: args}
	}
	return b
}

// coldScript sends first-seen requests only. Each round covers every
// template × strategy pair once, in a seeded order, and binds a fresh
// seeded individual, so no query text repeats. A pair goes to the
// shard backend in one round of every four, rotating, so a quarter of
// the requests name it.
func coldScript(d *dataset, seed int64) *script {
	rng := rand.New(rand.NewSource(seed))
	qs := lubm.Queries()
	pools := make([][]string, len(qs))
	for t, q := range qs {
		pools[t] = d.bindings(q, rng)
	}
	var reqs []request
	for round := 0; len(reqs) < coldLimit; round++ {
		progressed := false
		for _, i := range rng.Perm(len(qs) * len(strategies)) {
			t := i / len(strategies)
			if len(pools[t]) == 0 {
				continue
			}
			backend := "native"
			if (i+round)%4 == 3 {
				backend = "shard"
			}
			reqs = append(reqs, newRequest(pools[t][0], strategies[i%len(strategies)], backend))
			pools[t] = pools[t][1:]
			progressed = true
		}
		if !progressed {
			break
		}
	}
	next := 0
	return &script{reqs: reqs, clients: []func() (step, bool){func() (step, bool) {
		if next == len(reqs) {
			return step{}, false
		}
		next++
		return step{read: next - 1}, true
	}}}
}

// warmScript repeats the 52-key request set. A sequential warm-up
// pass plans and caches every key; then each client cycles through
// its own seeded permutations of the keys.
func warmScript(_ *dataset, seed int64) *script {
	reqs := warmRequests([]string{"native", "shard"})
	s := &script{reqs: reqs}
	rng := rand.New(rand.NewSource(seed))
	s.warmup = rng.Perm(len(reqs))
	for c := 0; c < warmClients; c++ {
		crng := rand.New(rand.NewSource(seed*31 + int64(c) + 1))
		var perm []int
		s.clients = append(s.clients, func() (step, bool) {
			if len(perm) == 0 {
				perm = crng.Perm(len(reqs))
			}
			i := perm[0]
			perm = perm[1:]
			return step{read: i}, true
		})
	}
	return s
}

// updateScript alternates readsPerWrite reads from the native half of
// the warm-repeat request set, taken from seeded permutations of it,
// with one insert batch.
func updateScript(_ *dataset, seed int64) *script {
	reqs := warmRequests([]string{"native"})
	rng := rand.New(rand.NewSource(seed))
	var perm []int
	n, batch := 0, 0
	return &script{reqs: reqs, clients: []func() (step, bool){func() (step, bool) {
		n++
		if n%(readsPerWrite+1) == 0 {
			batch++
			return step{read: -1, write: batch - 1}, true
		}
		if len(perm) == 0 {
			perm = rng.Perm(len(reqs))
		}
		i := perm[0]
		perm = perm[1:]
		return step{read: i}, true
	}}}
}

// fact is one ABox assertion to insert (o is empty for a concept).
type fact struct{ pred, s, o string }

// enrolmentBatch is insert batch number b: studentsPerBatch new
// graduate students, each a member of a department, taking two of its
// courses and advised by one of its staff. It touches only
// GraduateStudent, memberOf, takesCourse and advisedBy.
func (d *dataset) enrolmentBatch(b int) []fact {
	rng := rand.New(rand.NewSource(d.seed*1_000_003 + int64(b)))
	var out []fact
	for i := 0; i < studentsPerBatch; i++ {
		s := fmt.Sprintf("Enrolled_b%d_s%d", b, i)
		dept := d.depts[rng.Intn(len(d.depts))]
		courses, staff := d.course[dept], d.staff[dept]
		out = append(out,
			fact{pred: "GraduateStudent", s: s},
			fact{pred: "memberOf", s: s, o: dept},
			fact{pred: "takesCourse", s: s, o: courses[rng.Intn(len(courses))]},
			fact{pred: "takesCourse", s: s, o: courses[rng.Intn(len(courses))]},
			fact{pred: "advisedBy", s: s, o: staff[rng.Intn(len(staff))]},
		)
	}
	return out
}
