package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/wire"
)

// ScenarioParams configures a scenario instance against one target
// engine. Zero fields take the documented defaults.
type ScenarioParams struct {
	// Nodes are the active node ids of the target engine (e.g. the
	// node_ids of GET /snapshot?loads=1). Required.
	Nodes []int
	// Seed fixes the generator stream: identical params produce the
	// identical event sequence, independent of GOMAXPROCS or wall clock.
	Seed int64
	// Tokens is the mean arrival batch size in tasks (default 4).
	Tokens int
	// Wmax draws per-arrival task weights uniformly from {1..Wmax}
	// (default 1, i.e. unit tokens).
	Wmax int64
	// Hotspots sizes the hot ingress set of the "hotspot" scenario
	// (default max(1, len(Nodes)/64)).
	Hotspots int
	// HotFraction is the share of arrivals landing on the hot set in the
	// "hotspot" scenario (default 0.9).
	HotFraction float64
	// BurstEvery is the number of events between pulse bursts in the
	// "burst" and "quiescent" scenarios (default 256); BurstFactor
	// scales one burst to Tokens·BurstFactor tasks (default 32).
	BurstEvery, BurstFactor int
	// ChurnEvery is the number of events between topology changes in the
	// "churn-storm" scenario (default 64).
	ChurnEvery int
}

// normalize applies defaults and validates.
func (p *ScenarioParams) normalize() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("workload: scenario needs at least one node")
	}
	if p.Tokens == 0 {
		p.Tokens = 4
	}
	if p.Tokens < 1 {
		return fmt.Errorf("workload: scenario tokens %d must be >= 1", p.Tokens)
	}
	if p.Wmax == 0 {
		p.Wmax = 1
	}
	if p.Wmax < 1 {
		return fmt.Errorf("workload: scenario wmax %d must be >= 1", p.Wmax)
	}
	if p.Hotspots == 0 {
		p.Hotspots = len(p.Nodes) / 64
		if p.Hotspots < 1 {
			p.Hotspots = 1
		}
	}
	if p.Hotspots < 1 || p.Hotspots > len(p.Nodes) {
		return fmt.Errorf("workload: scenario hotspots %d out of range [1,%d]", p.Hotspots, len(p.Nodes))
	}
	if p.HotFraction == 0 {
		p.HotFraction = 0.9
	}
	if p.HotFraction < 0 || p.HotFraction > 1 {
		return fmt.Errorf("workload: scenario hot fraction %v out of range [0,1]", p.HotFraction)
	}
	if p.BurstEvery == 0 {
		p.BurstEvery = 256
	}
	if p.BurstEvery < 1 {
		return fmt.Errorf("workload: scenario burst interval %d must be >= 1", p.BurstEvery)
	}
	if p.BurstFactor == 0 {
		p.BurstFactor = 32
	}
	if p.BurstFactor < 1 {
		return fmt.Errorf("workload: scenario burst factor %d must be >= 1", p.BurstFactor)
	}
	if p.ChurnEvery == 0 {
		p.ChurnEvery = 64
	}
	if p.ChurnEvery < 1 {
		return fmt.Errorf("workload: scenario churn interval %d must be >= 1", p.ChurnEvery)
	}
	return nil
}

// Scenario generates the wire-event stream of one named workload for the
// streaming ingest path (POST /events/stream) over the node ids it is
// given. A Scenario is one seeded stream, driven by one goroutine: Next
// is not safe for concurrent use, and the stream replays exactly from
// (name, params). A harness with several concurrent clients runs one
// Scenario per client over disjoint node sets (cmd/lbload does, seeding
// each from its seed and the client index), so each client's stream is
// valid in any interleaving and a run replays from (name, params,
// clients); the focus and hot-set descriptions below then hold per
// client.
type Scenario interface {
	// Init prepares the generator; call it exactly once before Next.
	Init(p ScenarioParams) error
	// Next returns the next event of the infinite stream.
	Next() wire.Event
}

// ScenarioMaker constructs an uninitialized Scenario — the registry
// entry, in the style of YCSB named workloads.
type ScenarioMaker func() Scenario

// scenarioMakers is the named-scenario registry. Each entry describes one
// stream over its ScenarioParams.Nodes; N streams over disjoint node sets
// give N hot sets, N bursts and N foci.
//
//	steady       arrival/completion pairs on uniform nodes, Poisson batch sizes
//	hotspot      most arrivals concentrated on a small hot ingress set
//	burst        steady traffic with a large arrival burst every BurstEvery events
//	churn-storm  steady traffic interleaved with node joins and leaves
//	quiescent    all traffic pinned to one focus node, re-picked with a small
//	             burst every BurstEvery events — the stream's other nodes sleep
//	ci-smoke     steady pinned to unit weights and 4-token batches (the CI scenario)
var scenarioMakers = map[string]ScenarioMaker{
	"steady":      func() Scenario { return &steadyScenario{} },
	"hotspot":     func() Scenario { return &hotspotScenario{} },
	"burst":       func() Scenario { return &burstScenario{} },
	"churn-storm": func() Scenario { return &churnScenario{} },
	"quiescent":   func() Scenario { return &quiescentScenario{} },
	"ci-smoke":    func() Scenario { return &steadyScenario{fixedTokens: 4, fixedWmax: 1} },
}

// NewScenario instantiates a registered scenario by name.
func NewScenario(name string) (Scenario, error) {
	mk, ok := scenarioMakers[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown scenario %q (%s)", name, strings.Join(ScenarioNames(), "|"))
	}
	return mk(), nil
}

// ScenarioNames lists the registered scenario names, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioMakers))
	for name := range scenarioMakers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// pairPump is the shared core of the traffic scenarios: it emits
// arrival/completion pairs that keep the target's total load roughly
// flat. Arrivals add Poisson-sized batches (mean Tokens, min 1) and a
// matching completion is issued once at least Tokens arrived tasks are
// outstanding, so long runs neither drain nor flood the engine. (A
// completion landing on a near-empty node removes fewer tasks than
// requested; balancing keeps that rare, so residual drift is small and
// upward-bounded.)
type pairPump struct {
	rng         *rand.Rand
	nodes       []int
	tokens      int
	wmax        int64
	outstanding int
}

func (p *pairPump) init(sp ScenarioParams) {
	p.rng = rand.New(rand.NewSource(sp.Seed))
	p.nodes = append([]int(nil), sp.Nodes...)
	p.tokens = sp.Tokens
	p.wmax = sp.Wmax
}

func (p *pairPump) pick() int { return p.nodes[p.rng.Intn(len(p.nodes))] }

// arrivalAt emits a Poisson-sized arrival batch on the given node.
func (p *pairPump) arrivalAt(node int) wire.Event {
	k := poisson(float64(p.tokens)-1, p.rng) + 1
	return p.arrivalSized(node, k)
}

func (p *pairPump) arrivalSized(node, k int) wire.Event {
	p.outstanding += k
	ev := wire.Event{Kind: "arrival", Node: node, Tokens: k, Weight: 1}
	if p.wmax > 1 {
		ev.Weight = 1 + p.rng.Int63n(p.wmax)
	}
	return ev
}

func (p *pairPump) wantCompletion() bool { return p.outstanding >= p.tokens }

// completion retires up to Tokens outstanding tasks at a random node.
func (p *pairPump) completion() wire.Event {
	return p.completionAt(p.pick())
}

// completionAt retires up to Tokens outstanding tasks at the given node.
func (p *pairPump) completionAt(node int) wire.Event {
	n := p.tokens
	if n > p.outstanding {
		n = p.outstanding
	}
	p.outstanding -= n
	return wire.Event{Kind: "completion", Node: node, Count: n}
}

// steadyScenario is balanced uniform traffic; fixed* pin params for the
// "ci-smoke" registration.
type steadyScenario struct {
	pairPump
	fixedTokens int
	fixedWmax   int64
}

func (s *steadyScenario) Init(p ScenarioParams) error {
	if err := p.normalize(); err != nil {
		return err
	}
	if s.fixedTokens > 0 {
		p.Tokens = s.fixedTokens
	}
	if s.fixedWmax > 0 {
		p.Wmax = s.fixedWmax
	}
	s.init(p)
	return nil
}

func (s *steadyScenario) Next() wire.Event {
	if s.wantCompletion() {
		return s.completion()
	}
	return s.arrivalAt(s.pick())
}

// hotspotScenario concentrates HotFraction of the arrivals on a small
// hot ingress set; completions stay uniform, so the balancer must move
// the hot mass out continuously.
type hotspotScenario struct {
	pairPump
	hot     []int
	hotFrac float64
}

func (s *hotspotScenario) Init(p ScenarioParams) error {
	if err := p.normalize(); err != nil {
		return err
	}
	s.init(p)
	shuffled := append([]int(nil), s.nodes...)
	s.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	s.hot = shuffled[:p.Hotspots]
	s.hotFrac = p.HotFraction
	return nil
}

func (s *hotspotScenario) Next() wire.Event {
	if s.wantCompletion() {
		return s.completion()
	}
	node := s.pick()
	if s.rng.Float64() < s.hotFrac {
		node = s.hot[s.rng.Intn(len(s.hot))]
	}
	return s.arrivalAt(node)
}

// burstScenario is steady traffic with a Tokens·BurstFactor arrival
// pulse every BurstEvery events; the pump's completion pressure then
// drains the spike over the following events.
type burstScenario struct {
	pairPump
	every, factor int
	count         int
}

func (s *burstScenario) Init(p ScenarioParams) error {
	if err := p.normalize(); err != nil {
		return err
	}
	s.init(p)
	s.every = p.BurstEvery
	s.factor = p.BurstFactor
	return nil
}

func (s *burstScenario) Next() wire.Event {
	s.count++
	if s.count%s.every == 0 {
		return s.arrivalSized(s.pick(), s.tokens*s.factor)
	}
	if s.wantCompletion() {
		return s.completion()
	}
	return s.arrivalAt(s.pick())
}

// quiescentScenario is the activity-gate workload: every event targets a
// single focus node, so a gated engine keeps the rest of the graph
// asleep and the hot frontier is one small ball. Every BurstEvery events
// the focus moves to a fresh node with a Tokens·BurstFactor arrival
// burst — a localized pulse the balancer spreads and re-quiesces —
// and between pulses small arrival/completion pairs at the focus keep
// the load flat without waking anything else. Against lbserve -rate
// this produces long idle stretches (zero hot edges between ticks)
// punctuated by short balancing flurries.
type quiescentScenario struct {
	pairPump
	every, factor int
	count         int
	focus         int
}

func (s *quiescentScenario) Init(p ScenarioParams) error {
	if err := p.normalize(); err != nil {
		return err
	}
	s.init(p)
	s.every = p.BurstEvery
	s.factor = p.BurstFactor
	s.focus = s.pick()
	return nil
}

func (s *quiescentScenario) Next() wire.Event {
	s.count++
	if s.count%s.every == 0 {
		s.focus = s.pick()
		return s.arrivalSized(s.focus, s.tokens*s.factor)
	}
	if s.wantCompletion() {
		return s.completionAt(s.focus)
	}
	return s.arrivalAt(s.focus)
}

// churnScenario interleaves steady traffic with topology churn: every
// ChurnEvery events it alternates a node join and a node leave. The
// generator only ever targets nodes it has tracked since Init — a join's
// slot id is assigned server-side and never targeted, and a left node is
// dropped from the tracked set — so every emitted event is valid against
// the engine regardless of slot recycling. At most half of the initial
// nodes ever leave.
type churnScenario struct {
	pairPump
	every  int
	floor  int
	count  int
	churns int
}

func (s *churnScenario) Init(p ScenarioParams) error {
	if err := p.normalize(); err != nil {
		return err
	}
	s.init(p)
	s.every = p.ChurnEvery
	s.floor = len(s.nodes) / 2
	if s.floor < 2 {
		s.floor = 2
	}
	return nil
}

func (s *churnScenario) Next() wire.Event {
	s.count++
	if s.count%s.every == 0 {
		s.churns++
		if s.churns%2 == 0 && len(s.nodes) > s.floor {
			idx := s.rng.Intn(len(s.nodes))
			node := s.nodes[idx]
			s.nodes[idx] = s.nodes[len(s.nodes)-1]
			s.nodes = s.nodes[:len(s.nodes)-1]
			return wire.Event{Kind: "leave", Node: node}
		}
		k := 2 + s.rng.Intn(2)
		if k > len(s.nodes) {
			k = len(s.nodes)
		}
		peers := make([]int, 0, k)
		for len(peers) < k {
			c := s.pick()
			dup := false
			for _, q := range peers {
				if q == c {
					dup = true
					break
				}
			}
			if !dup {
				peers = append(peers, c)
			}
		}
		return wire.Event{Kind: "join", Speed: 1 + s.rng.Int63n(4), Peers: peers}
	}
	if s.wantCompletion() {
		return s.completion()
	}
	return s.arrivalAt(s.pick())
}
