// Package cloud models the IaaS platform of the paper's Sect. IV-A: Amazon
// EC2 with its seven 2012 regions, four on-demand instance types billed per
// Billing Time Unit (BTU = 3600 s), the Stata/MP-style speed-ups the paper
// assigns to each type, 1/10 Gb network links, and per-GB outbound transfer
// pricing between regions.
package cloud

import (
	"fmt"
	"math"
	"strings"
)

// BTU is the Billing Time Unit: VM rental is charged in whole BTUs. The
// paper uses Amazon's one-hour unit.
const BTU = 3600.0 // seconds

// InstanceType enumerates the EC2 on-demand types used in the paper.
type InstanceType int

// The four instance types of Table II. Their order is their speed order,
// so Faster/Slower can step along the enum.
const (
	Small InstanceType = iota
	Medium
	Large
	XLarge
	numInstanceTypes
)

// instanceInfo holds the static per-type characteristics (paper Sect. IV-A).
var instanceInfo = [numInstanceTypes]struct {
	name      string
	suffix    string
	cores     int
	speedup   float64
	bandwidth float64 // link speed in bits per second
}{
	{"small", "s", 1, 1.0, 1e9},
	{"medium", "m", 2, 1.6, 1e9},
	{"large", "l", 4, 2.1, 10e9},
	{"xlarge", "xl", 8, 2.7, 10e9},
}

// InstanceTypes lists all types from slowest to fastest.
func InstanceTypes() []InstanceType {
	return []InstanceType{Small, Medium, Large, XLarge}
}

// String returns the full type name ("small", ..., "xlarge").
func (t InstanceType) String() string {
	if t < 0 || t >= numInstanceTypes {
		return fmt.Sprintf("InstanceType(%d)", int(t))
	}
	return instanceInfo[t].name
}

// Suffix returns the short label the paper appends to strategy names
// ("-s", "-m", "-l").
func (t InstanceType) Suffix() string { return instanceInfo[t].suffix }

// Cores returns the number of virtual cores.
func (t InstanceType) Cores() int { return instanceInfo[t].cores }

// Speedup returns the execution speed-up relative to Small (1, 1.6, 2.1,
// 2.7 — the Stata/MP figures quoted in the paper).
func (t InstanceType) Speedup() float64 { return instanceInfo[t].speedup }

// Bandwidth returns the network link speed in bits per second (1 Gb for
// small/medium, 10 Gb for large/xlarge).
func (t InstanceType) Bandwidth() float64 { return instanceInfo[t].bandwidth }

// Faster returns the next faster type and true, or the receiver and false
// when the receiver is already the fastest.
func (t InstanceType) Faster() (InstanceType, bool) {
	if t+1 < numInstanceTypes {
		return t + 1, true
	}
	return t, false
}

// Slower returns the next slower type and true, or the receiver and false
// when the receiver is already the slowest.
func (t InstanceType) Slower() (InstanceType, bool) {
	if t > 0 {
		return t - 1, true
	}
	return t, false
}

// ParseInstanceType resolves both full names and the paper's suffixes.
func ParseInstanceType(s string) (InstanceType, error) {
	for _, t := range InstanceTypes() {
		if s == instanceInfo[t].name || s == instanceInfo[t].suffix {
			return t, nil
		}
	}
	return 0, fmt.Errorf("cloud: unknown instance type %q", s)
}

// Region identifies one EC2 region.
type Region int

// The seven regions of Table II.
const (
	USEastVirginia Region = iota
	USWestOregon
	USWestCalifornia
	EUDublin
	AsiaSingapore
	AsiaTokyo
	SASaoPaulo
	numRegions
)

// regionInfo holds Table II verbatim: hourly on-demand price per type (USD)
// and the per-GB outbound transfer price.
var regionInfo = [numRegions]struct {
	name     string
	prices   [numInstanceTypes]float64
	transfer float64
}{
	{"us-east-virginia", [numInstanceTypes]float64{0.08, 0.16, 0.32, 0.64}, 0.12},
	{"us-west-oregon", [numInstanceTypes]float64{0.08, 0.16, 0.32, 0.64}, 0.12},
	{"us-west-california", [numInstanceTypes]float64{0.09, 0.18, 0.36, 0.72}, 0.12},
	{"eu-dublin", [numInstanceTypes]float64{0.085, 0.17, 0.34, 0.68}, 0.12},
	{"asia-singapore", [numInstanceTypes]float64{0.085, 0.17, 0.34, 0.68}, 0.19},
	{"asia-tokyo", [numInstanceTypes]float64{0.092, 0.184, 0.368, 0.736}, 0.201},
	{"sa-sao-paulo", [numInstanceTypes]float64{0.115, 0.230, 0.460, 0.920}, 0.25},
}

// Regions lists all regions in Table II order.
func Regions() []Region {
	out := make([]Region, numRegions)
	for i := range out {
		out[i] = Region(i)
	}
	return out
}

// String returns the region's name.
func (r Region) String() string {
	if r < 0 || r >= numRegions {
		return fmt.Sprintf("Region(%d)", int(r))
	}
	return regionInfo[r].name
}

// ParseRegion resolves a region by name, case-insensitively.
func ParseRegion(s string) (Region, error) {
	for _, r := range Regions() {
		if strings.EqualFold(s, regionInfo[r].name) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("cloud: unknown region %q", s)
}

// Price returns the on-demand list price per BTU for a type in a region,
// in USD — the constant Table II rate card. It is NOT "the price a lease
// pays": spot leases, finer billing granularities and time-varying rates
// (internal/market) all layer on top of this base. Callers that care
// about the price in effect at a point in simulated time should go
// through PriceAt instead of assuming this constant.
func (r Region) Price(t InstanceType) float64 {
	return regionInfo[r].prices[t]
}

// PriceAt returns the on-demand price per BTU in effect at absolute
// simulated time at. Today the rate card is constant, so PriceAt equals
// Price for every at — the function exists as the seam the market layer
// (internal/market) prices leases through: spot traces multiply this
// base, and a future time-of-day or demand model slots in here without
// touching any billing call site.
func PriceAt(t InstanceType, r Region, at float64) float64 {
	_ = at // constant rate card (see Region.Price); the parameter is the seam
	return r.Price(t)
}

// TransferOutPrice returns the per-GB price for data leaving the region.
func (r Region) TransferOutPrice() float64 {
	return regionInfo[r].transfer
}

// Platform bundles the pricing model with the network model for one
// experiment. The zero value is not useful; use NewPlatform.
type Platform struct {
	// Latency is the one-way network latency applied to every inter-VM
	// transfer, in seconds.
	Latency float64
	// FreeTransferBytes is the lower edge of the billable transfer band:
	// Amazon bills transfers only above 1 GB per month (paper Sect. IV-A).
	FreeTransferBytes float64
	// MaxBilledTransferBytes is the upper edge of the billable band (10 TB).
	MaxBilledTransferBytes float64
}

// NewPlatform returns a Platform with the paper's defaults.
func NewPlatform() *Platform {
	return &Platform{
		Latency:                0.1,
		FreeTransferBytes:      1 << 30,        // 1 GB
		MaxBilledTransferBytes: 10 * (1 << 40), // 10 TB
	}
}

// ExecTime returns the execution time of a task with the given reference
// work (seconds on Small) on an instance of type t.
func (p *Platform) ExecTime(work float64, t InstanceType) float64 {
	return work / t.Speedup()
}

// TransferTime returns the store-and-forward transfer time of size bytes
// between two VM types: size/bandwidth + latency, with bandwidth the
// narrower of the two links (paper Sect. IV-A). Zero bytes transfer in zero
// time (same-VM or control-only edges short-circuit before networking).
func (p *Platform) TransferTime(size float64, from, to InstanceType) float64 {
	if size <= 0 {
		return 0
	}
	bw := math.Min(from.Bandwidth(), to.Bandwidth())
	return (size*8)/bw + p.Latency
}

// TransferCost returns the monetary cost of moving size bytes from one
// region to another. Intra-region transfers are free; inter-region
// transfers are billed per GB at the source region's outbound price, inside
// the (1 GB, 10 TB] monthly band.
func (p *Platform) TransferCost(size float64, from, to Region) float64 {
	if from == to || size <= 0 {
		return 0
	}
	if size <= p.FreeTransferBytes || size > p.MaxBilledTransferBytes {
		return 0
	}
	return size / (1 << 30) * from.TransferOutPrice()
}

// Eps is the repository's single float-comparison tolerance. It lives
// here because this package sits at the bottom of the dependency graph;
// internal/validate re-exports it as validate.Eps, the canonical name the
// rest of the repository (metrics, the oracles, the tests) uses. Keep the
// two spellings identical: billing boundaries, target-square membership
// and plan↔sim agreement must all be decided by the same tolerance, or a
// schedule can be billed one way by the planner and another by the
// simulator, or classified differently by a test and the sweep driver.
const Eps = 1e-9

// Close reports whether a and b agree within Eps, scaled by their
// magnitude: |a−b| ≤ Eps·max(1, |a|, |b|). The relative term matters for
// large simulated times (hundreds of simulated days), where accumulated
// float error legitimately exceeds an absolute 1e-9 while the values are
// still equal for every modelling purpose.
func Close(a, b float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		m = 1
	}
	return math.Abs(a-b) <= Eps*m
}

// BTUs returns the number of whole billing units covering span seconds. A
// zero-length lease still costs one BTU once the VM was started.
//
// The count is eps-guarded: a span that is an exact BTU multiple up to
// float error (e.g. a lease of exactly 2·3600 s assembled from task
// durations that sum a hair over) bills the exact multiple, not an extra
// full BTU. The guard is relative (Eps·max(1, span/BTU) in BTU units), so
// it holds at any lease length.
func BTUs(span float64) int { return Units(span, BTU) }

// Units returns the number of whole billing units of the given length
// (seconds) covering span seconds — BTUs generalized to the finer billing
// granularities of internal/market (per-minute, per-second). The
// eps-guard is the same relative guard in unit space (Eps·max(1,
// span/unit)), so a span landing on a billing boundary up to float error
// bills the exact multiple under every granularity, decided by the single
// shared tolerance. A zero-length lease still bills one unit once the VM
// was started.
func Units(span, unit float64) int {
	if unit <= 0 {
		panic(fmt.Sprintf("cloud: non-positive billing unit %v", unit))
	}
	if span < 0 {
		if span < -Eps {
			panic(fmt.Sprintf("cloud: negative lease span %v", span))
		}
		span = 0 // float noise around a zero-length lease
	}
	x := span / unit
	guard := Eps
	if x > 1 {
		guard = Eps * x
	}
	n := int(math.Ceil(x - guard))
	if n == 0 {
		n = 1
	}
	return n
}

// LeaseCost returns the rental price for a VM of type t in region r that
// was held for span seconds.
func LeaseCost(span float64, t InstanceType, r Region) float64 {
	return float64(BTUs(span)) * r.Price(t)
}
