// Package params centralizes every calibration constant of the simulated
// platform. Each value is annotated with its provenance: either a number
// the paper reports directly (§4.2.1 microbenchmarks, §6 methodology) or
// a value chosen during calibration so that the mechanistic model
// reproduces the paper's reported shapes (see EXPERIMENTS.md).
//
// Params holds only the values some caller varies, and it is passed
// explicitly to every subsystem. Experiments that sweep a dimension
// (Fig. 9 sweeps CXL latency) copy the struct and override one field.
// Every cost no caller varies, such as fault, page-table and container
// costs, is an exported constant.
//
// The entry point is Default; experiments copy the returned struct and
// override fields. The capacity-manager knobs (EvictPolicy,
// CXLHighWatermark, CXLLowWatermark, CXLReclaimPeriod) are described in
// DESIGN.md §10.
package params
