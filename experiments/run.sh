#!/bin/sh
# Regenerates the committed cloud-economics sweep artifacts (see
# EXPERIMENTS.md "Cloud economics: hedging under preemption"): the 19
# paper strategies rent on-demand per-BTU (the paper's economics) while
# the two hedging provisioners bring their own market terms —
# SpotFallback buys discounted reclaimable spot with on-demand
# replacement, WarmPool4 pre-warms four leases. -preempt-rate exposes
# the spot leases to reclamation.
#
# The planned grid (spot_grid.csv) is rate-independent — preemption only
# bites the replay — so it is written once; the per-rate reliability
# tables carry the preemption/fallback/warm counters. All runs are fully
# seeded, so every artifact is bit-for-bit reproducible.
set -e
cd "$(dirname "$0")/.."

go run ./cmd/sweep -table none -paranoid \
  -config experiments/spot-vs-ondemand.json \
  -preempt-rate 0.3 -recovery retry -fault-seed 7 \
  -csv experiments/spot_grid.csv \
  >experiments/spot_preempt_0.3.txt

go run ./cmd/sweep -table none -paranoid \
  -config experiments/spot-vs-ondemand.json \
  -preempt-rate 1.5 -recovery retry -fault-seed 7 \
  >experiments/spot_preempt_1.5.txt

# Online load (see EXPERIMENTS.md "Spot vs on-demand under continuous
# load"): the identical open-loop arrival stream — 500 instances of the
# order:3/montage2:1 mix, one every 120 s on average, deadline-driven
# scaler, 7200 s response SLA — priced on-demand per-second and on spot
# with mild preemption. Arrival times depend on the seed alone, so both
# pools face bit-identical demand and the artifacts diff cleanly.
go run ./cmd/wfload -mix order:3,montage2:1 -interarrival 120 -n 500 \
  -scaler deadline -deadline 7200 -max 64 -seed 42 \
  -market ondemand-sec \
  >experiments/online_ondemand_sec.txt

go run ./cmd/wfload -mix order:3,montage2:1 -interarrival 120 -n 500 \
  -scaler deadline -deadline 7200 -max 64 -seed 42 \
  -market spot -faults preempt-mild \
  >experiments/online_spot.txt
