package cache

import "testing"

func TestMSHRAllocateAndRetire(t *testing.T) {
	m := NewMSHRFile(4)
	start, coalesced := m.Allocate(100, 0, 400)
	if start != 0 || coalesced {
		t.Fatalf("Allocate = (%d,%v), want (0,false)", start, coalesced)
	}
	if occ := m.Occupancy(10); occ != 1 {
		t.Fatalf("Occupancy = %d, want 1", occ)
	}
	if occ := m.Occupancy(400); occ != 0 {
		t.Fatalf("Occupancy after completion = %d, want 0", occ)
	}
}

func TestMSHRCoalesce(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(7, 0, 400)
	start, coalesced := m.Allocate(7, 10, 350)
	if !coalesced || start != 10 {
		t.Fatalf("Allocate same line = (%d,%v), want coalesced at 10", start, coalesced)
	}
	if m.Occupancy(11) != 1 {
		t.Fatal("coalesced miss created a second entry")
	}
}

func TestMSHRCoalesceKeepsLaterCompletion(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(7, 0, 400)
	m.Allocate(7, 10, 500) // later completion wins
	if m.Occupancy(450) != 1 {
		t.Fatal("entry retired before its extended completion time")
	}
	if m.Occupancy(500) != 0 {
		t.Fatal("entry survived past completion")
	}
}

func TestMSHRFullStall(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(1, 0, 100)
	m.Allocate(2, 0, 200)
	start, _ := m.Allocate(3, 10, 300)
	if start != 100 {
		t.Fatalf("stalled start = %d, want 100 (earliest retirement)", start)
	}
	if m.Occupancy(10) != 2 {
		t.Fatal("the stalled miss did not take the retired entry's register")
	}
}

func TestMSHRZeroCapacityClamped(t *testing.T) {
	m := NewMSHRFile(0)
	if m.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want clamp to 1", m.Capacity())
	}
}
