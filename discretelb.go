// Package discretelb is the public API of this repository: a library for
// discrete neighbourhood load balancing on arbitrary networks with weighted
// tasks and heterogeneous node speeds, reproducing
//
//	Akbari, Berenbrink, Sauerwald — "A Simple Approach for Adapting
//	Continuous Load Balancing Processes to Discrete Settings" (PODC 2012).
//
// The package re-exports the building blocks from the internal packages:
//
//   - Graphs and generators (hypercube, torus, expanders, arbitrary graphs).
//   - Continuous processes: first-order diffusion (FOS), second-order
//     diffusion (SOS), and matching-based dimension exchange.
//   - The paper's transformations: Algorithm 1 (deterministic flow
//     imitation for weighted tasks) and Algorithm 2 (randomized flow
//     imitation for unit tokens).
//   - Baseline discrete schemes from the prior literature.
//   - A simulation runner with discrepancy metrics and traces.
//
// A minimal end-to-end use:
//
//	g, _ := discretelb.NewHypercube(8)
//	s := discretelb.UniformSpeeds(g.N())
//	x0, _ := discretelb.PointMass(g.N(), 4096, 0)
//	res, _ := discretelb.BalanceTokensAlg1(g, s, x0)
//	fmt.Println(res.MaxMin, res.Rounds)
package discretelb

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matching"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/workload"
)

// Core model types.
type (
	// Graph is an immutable simple undirected network.
	Graph = graph.Graph
	// Arc is one direction of an edge in an adjacency list.
	Arc = graph.Arc
	// Speeds holds per-node processing speeds (>= 1).
	Speeds = load.Speeds
	// Vector is an integer load vector (total task weight per node).
	Vector = load.Vector
	// Task is a non-divisible work item with an integer weight.
	Task = load.Task
	// TaskDist assigns whole tasks to nodes.
	TaskDist = load.TaskDist
	// Alphas are the symmetric diffusion parameters, one per edge.
	Alphas = continuous.Alphas
	// Flows holds one round of per-edge directional transfers.
	Flows = continuous.Flows
	// ContinuousProcess is a continuous balancing process (FOS, SOS,
	// matching-based).
	ContinuousProcess = continuous.Process
	// ContinuousFactory builds coupled instances of a continuous process.
	ContinuousFactory = continuous.Factory
	// Matching is a set of node-disjoint edges.
	Matching = matching.Matching
	// MatchingSchedule yields the matching active in each round.
	MatchingSchedule = matching.Schedule
	// DiscreteProcess is the common interface of all discrete schemes.
	DiscreteProcess = sim.Discrete
	// RunOptions configures a simulation run.
	RunOptions = sim.Options
	// RunResult summarizes a simulation run.
	RunResult = sim.Result
	// TaskPolicy selects which task Algorithm 1 forwards next.
	TaskPolicy = core.TaskPolicy
	// FlowImitation is the paper's Algorithm 1.
	FlowImitation = core.FlowImitation
	// RandomizedFlowImitation is the paper's Algorithm 2.
	RandomizedFlowImitation = core.RandomizedFlowImitation
	// Cluster runs Algorithm 1 distributed: one goroutine per node, tasks
	// as channel messages, a continuous replica per node.
	Cluster = dist.Cluster
	// ProcessMaker builds independent continuous replicas for Cluster
	// nodes.
	ProcessMaker = dist.ProcessMaker
	// DynamicGraph is a mutable topology for online executions.
	DynamicGraph = graph.Dynamic
	// Engine is the always-on, event-driven Algorithm 1 runtime.
	Engine = engine.Engine
	// EngineConfig configures an Engine.
	EngineConfig = engine.Config
	// EngineEvent is one unit of the engine's input stream.
	EngineEvent = engine.Event
	// EngineSample is one round's streamed engine metrics.
	EngineSample = engine.Sample
	// EngineSnapshot is a point-in-time engine summary.
	EngineSnapshot = engine.Snapshot
	// EngineServer exposes a live Engine over HTTP.
	EngineServer = engine.Server
	// ArrivalBatch is one scheduled batch of online task arrivals.
	ArrivalBatch = workload.Arrival
)

// Task selection policies for Algorithm 1.
const (
	PolicyLIFO         = core.PolicyLIFO
	PolicyFIFO         = core.PolicyFIFO
	PolicyLargestFirst = core.PolicyLargestFirst
)

// Graph constructors.
var (
	// NewGraph builds a graph from an explicit edge list.
	NewGraph = graph.New
	// NewHypercube builds the dim-dimensional hypercube.
	NewHypercube = graph.Hypercube
	// NewTorus builds an r-dimensional torus.
	NewTorus = graph.Torus
	// NewGrid2D builds a rows x cols grid.
	NewGrid2D = graph.Grid2D
	// NewCycle builds the n-cycle.
	NewCycle = graph.Cycle
	// NewPath builds the n-path.
	NewPath = graph.Path
	// NewComplete builds K_n.
	NewComplete = graph.Complete
	// NewStar builds the n-star.
	NewStar = graph.Star
	// NewRandomRegular builds a connected random d-regular graph.
	NewRandomRegular = graph.RandomRegular
	// NewErdosRenyi builds a connected Erdős–Rényi graph.
	NewErdosRenyi = graph.ErdosRenyi
)

// Workload helpers.
var (
	// UniformSpeeds returns n speeds equal to 1.
	UniformSpeeds = load.UniformSpeeds
	// PointMass places all load on one node.
	PointMass = workload.PointMass
	// UniformRandomLoad throws tokens uniformly onto nodes.
	UniformRandomLoad = workload.UniformRandom
	// RandomWeightedTasks builds random weighted task distributions.
	RandomWeightedTasks = workload.RandomWeightedTasks
	// AddLoadFloor shifts a load vector by ℓ·s_i per node.
	AddLoadFloor = workload.AddFloor
	// NewTokens converts token counts into a unit-weight TaskDist.
	NewTokens = load.NewTokens
)

// Continuous processes.
var (
	// DefaultAlphas returns α_e = min(s_u,s_v)/(max(d_u,d_v)+1).
	DefaultAlphas = continuous.DefaultAlphas
	// NewFOS builds a first-order diffusion process.
	NewFOS = continuous.NewFOS
	// NewSOS builds a second-order diffusion process.
	NewSOS = continuous.NewSOS
	// NewMatchingProcess builds a dimension-exchange process.
	NewMatchingProcess = continuous.NewMatchingProcess
	// FOSFactory builds coupled FOS instances.
	FOSFactory = continuous.FOSFactory
	// SOSFactory builds coupled SOS instances.
	SOSFactory = continuous.SOSFactory
	// MatchingFactory builds coupled matching processes.
	MatchingFactory = continuous.MatchingFactory
	// BalancingTime runs a continuous process to its balanced state.
	BalancingTime = continuous.BalancingTime
	// DiffusionLambda estimates |λ2| of the diffusion matrix.
	DiffusionLambda = continuous.DiffusionLambda
	// OptimalSOSBeta returns β* = 2/(1+sqrt(1-λ²)).
	OptimalSOSBeta = spectral.OptimalSOSBeta
)

// Matching schedules.
var (
	// NewPeriodicMatchings cycles through explicit matchings.
	NewPeriodicMatchings = matching.NewPeriodic
	// NewPeriodicFromColoring derives periodic matchings from a greedy
	// edge colouring.
	NewPeriodicFromColoring = matching.NewPeriodicFromColoring
	// NewRandomMatchings draws an independent random maximal matching per
	// round.
	NewRandomMatchings = matching.NewRandom
	// GreedyEdgeColoring partitions edges into at most 2d-1 matchings.
	GreedyEdgeColoring = matching.GreedyEdgeColoring
)

// The paper's transformations and prior baselines.
var (
	// NewFlowImitation builds Algorithm 1 over any continuous factory.
	NewFlowImitation = core.NewFlowImitation
	// NewRandomizedFlowImitation builds Algorithm 2.
	NewRandomizedFlowImitation = core.NewRandomizedFlowImitation
	// NewRoundDownDiffusion builds the round-down FOS baseline.
	NewRoundDownDiffusion = baseline.NewRoundDownDiffusion
	// NewDeterministicAccum builds the bounded-error deterministic
	// baseline.
	NewDeterministicAccum = baseline.NewDeterministicAccum
	// NewRandomizedRounding builds the randomized-rounding FOS baseline.
	NewRandomizedRounding = baseline.NewRandomizedRounding
	// NewExcessToken builds the excess-token diffusion baseline.
	NewExcessToken = baseline.NewExcessToken
	// NewRoundDownMatching builds the round-down matching baseline.
	NewRoundDownMatching = baseline.NewRoundDownMatching
	// NewRandomizedMatching builds the randomized matching baseline.
	NewRandomizedMatching = baseline.NewRandomizedMatching
	// NewRotorExcess builds the deterministic rotor (round-robin)
	// excess-token baseline.
	NewRotorExcess = baseline.NewRotorExcess
)

// Distributed execution (one goroutine per node, channel messages).
var (
	// NewCluster builds a distributed Algorithm 1 run.
	NewCluster = dist.NewCluster
	// VerifyDistributed cross-checks a distributed run against the
	// centralized implementation.
	VerifyDistributed = dist.Verify
	// FOSMaker / SOSMaker / PeriodicMatchingMaker / RandomMatchingMaker
	// build per-node continuous replicas for NewCluster.
	FOSMaker              = dist.FOSMaker
	SOSMaker              = dist.SOSMaker
	PeriodicMatchingMaker = dist.PeriodicMatchingMaker
	RandomMatchingMaker   = dist.RandomMatchingMaker
)

// Online engine: event-driven Algorithm 1 with node churn.
var (
	// NewEngine builds the always-on runtime (see internal/engine).
	NewEngine = engine.New
	// NewEngineServer wraps an engine with the lbserve HTTP surface.
	NewEngineServer = engine.NewServer
	// NewDynamicGraph copies a graph into a mutable topology.
	NewDynamicGraph = graph.NewDynamic
	// EngineArrival / EngineArrivalTasks / EngineCompletion / EngineJoin /
	// EngineLeave / EngineEdgeChange build the engine's event stream.
	EngineArrival      = engine.Arrival
	EngineArrivalTasks = engine.ArrivalTasks
	EngineCompletion   = engine.Completion
	EngineJoin         = engine.Join
	EngineLeave        = engine.Leave
	EngineEdgeChange   = engine.EdgeChange
	// PoissonBursts and HotspotIngress generate online arrival processes.
	PoissonBursts  = workload.PoissonBursts
	HotspotIngress = workload.HotspotIngress
)

// Simulation and metrics.
var (
	// Run executes a discrete process and summarizes the outcome.
	Run = sim.Run
	// TimeToBalance probes the continuous balancing time T.
	TimeToBalance = sim.TimeToBalance
	// Makespans returns x_i/s_i per node.
	Makespans = load.Makespans
	// MaxMinDiscrepancy is max makespan − min makespan.
	MaxMinDiscrepancy = load.MaxMinDiscrepancy
	// MaxAvgDiscrepancy is max makespan − W/S.
	MaxAvgDiscrepancy = load.MaxAvgDiscrepancy
	// Potential is the quadratic potential Φ.
	Potential = load.Potential
)

// BalanceTokensAlg1 is a one-call quickstart: it runs Algorithm 1 over
// first-order diffusion with unit tokens until the continuous balancing time
// T and returns the summarized result. maxRounds caps the balancing-time
// probe; 500000 is a safe default for the graphs in this repository.
func BalanceTokensAlg1(g *Graph, s Speeds, tokens Vector) (RunResult, error) {
	const maxRounds = 500_000
	alpha, err := DefaultAlphas(g, s)
	if err != nil {
		return RunResult{}, err
	}
	factory := FOSFactory(g, s, alpha)
	bt, err := TimeToBalance(factory, tokens.Float(), maxRounds)
	if err != nil {
		return RunResult{}, err
	}
	dist, err := NewTokens(tokens)
	if err != nil {
		return RunResult{}, err
	}
	p, err := NewFlowImitation(g, s, dist, factory, PolicyLIFO)
	if err != nil {
		return RunResult{}, err
	}
	return Run(p, RunOptions{Rounds: bt, RealTotal: tokens.Total()})
}

// BalanceTokensAlg2 is the randomized counterpart of BalanceTokensAlg1: it
// runs Algorithm 2 over first-order diffusion with the given seed.
func BalanceTokensAlg2(g *Graph, s Speeds, tokens Vector, seed int64) (RunResult, error) {
	const maxRounds = 500_000
	alpha, err := DefaultAlphas(g, s)
	if err != nil {
		return RunResult{}, err
	}
	factory := FOSFactory(g, s, alpha)
	bt, err := TimeToBalance(factory, tokens.Float(), maxRounds)
	if err != nil {
		return RunResult{}, err
	}
	p, err := NewRandomizedFlowImitation(g, s, tokens, factory, rand.New(rand.NewSource(seed)))
	if err != nil {
		return RunResult{}, err
	}
	return Run(p, RunOptions{Rounds: bt, RealTotal: tokens.Total()})
}
