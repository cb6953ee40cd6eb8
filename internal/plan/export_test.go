package plan

// The per-quantity bills as VMs computed them before Bill: each one
// derives the lease span from LeaseStart and LeaseEnd and rounds it on its
// own. TestBillMatchesPerQuantity holds Bill and Totals to them bit for
// bit; the older tests read them as before.

// PaidSeconds returns the billed lease length: Span rounded up to whole
// billing units of the lease's granularity. An unleased or prepaid VM
// bills nothing.
func (vm *VM) PaidSeconds() float64 {
	if !vm.leased() || vm.Prepaid {
		return 0
	}
	return vm.Lease.PaidSeconds(vm.Span())
}

// Idle returns the paid-but-unused time; zero for an unleased or prepaid
// VM.
func (vm *VM) Idle() float64 {
	if !vm.leased() || vm.Prepaid {
		return 0
	}
	return vm.PaidSeconds() - vm.Busy()
}

// Cost returns the rental price of the lease in USD; zero for an unleased
// or prepaid VM.
func (vm *VM) Cost() float64 {
	if !vm.leased() || vm.Prepaid {
		return 0
	}
	_, cost := vm.Lease.Bill(vm.LeaseStart(), vm.Span(), vm.Type, vm.Region)
	return cost
}
