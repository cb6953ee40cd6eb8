// Package sla answers deadline questions over non-deterministic
// workloads: with runtime splits and loops, a static strategy induces a
// makespan *distribution*, and an SLA is a probability of finishing in
// time. This operationalizes the deadline-centric related work the paper
// surveys (SHEFT, Byun et al.'s cost-optimized deadline provisioning) on
// top of this repository's template and strategy machinery.
package sla
