package experiments

// Experiment is one registered experiment: the ID its table carries
// and the function that produces the table.
type Experiment struct {
	ID  string
	Run func(Config) *Table
}

// Registry lists every experiment in report order. cmd/hgpbench runs
// it, and a test pins the experiment indexes of DESIGN.md §4 and
// EXPERIMENTS.md to it.
var Registry = []Experiment{
	{"E1", E1TreeDPOptimality},
	{"E2", E2CostForms},
	{"E3", E3ViolationBound},
	{"E4", E4ApproxRatio},
	{"E5", E5VsBaselines},
	{"E6", E6StreamThroughput},
	{"E7", E7TreeDistortion},
	{"E8", E8DPScaling},
	{"E9", E9CMSweep},
	{"E10", E10KBGPConsistency},
	{"E11", E11AblationDP},
	{"E12", E12AblationTrees},
	{"E13", E13AblationRefinement},
	{"E14", E14EmbeddingCongestion},
	{"E15", E15DESStability},
	{"E16", E16AblationFlowRefine},
	{"E17", E17AblationStrategy},
	{"E18", E18DynamicRepartition},
	{"E19", E19EpsSweep},
	{"E20", E20AblationPruning},
	{"E21", E21AtScale},
	{"E22", E22AnytimeLadder},
	{"E23", E23WarmRestart},
	{"E24", E24MultiCoreMatrix},
	{"E25", E25CanonCache},
	{"E26", E26IncrementalRepartition},
	{"F1", F1BadSetSplit},
	{"F2", F2ActiveSets},
}
