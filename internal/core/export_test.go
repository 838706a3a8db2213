package core

// InterceptMSI routes every N2H arrival interrupt of mb through f, which
// receives the interrupted thread's PID and the real delivery; a test
// that drops one simply does not call deliver.
func (mb *Mailbox) InterceptMSI(f func(pid int, deliver func(pid int))) {
	deliver := mb.wake
	mb.wake = func(pid int) { f(pid, deliver) }
}

// HoldAllN2H marks every N2H slot as holding an unconsumed descriptor of
// pid, as if the host had yet to read them all.
func (mb *Mailbox) HoldAllN2H(pid uint32) {
	for slot := range mailboxSlots {
		mb.n2hHeld[slot], mb.n2hHolder[slot] = true, pid
	}
}

// ReleaseAllN2H frees every held N2H slot, as consuming them would.
func (mb *Mailbox) ReleaseAllN2H() {
	for slot := range mailboxSlots {
		if mb.n2hHeld[slot] {
			mb.releaseN2H(slot)
		}
	}
}
