package freon

import (
	"testing"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
)

func TestTwoStageBlocksClassFirst(t *testing.T) {
	env := newFakeEnv("m1", "m2")
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	f, err := New([]string{"m1", "m2"}, env, bal, env, Config{TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	f.TickPoll()

	// First hot period: only the dynamic class is blocked; weights
	// stay nominal.
	env.temps["m1"][model.NodeCPU] = 68
	if err := f.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	if blocked, _ := bal.ClassBlocked("m1", "dynamic"); !blocked {
		t.Error("stage one did not block the dynamic class")
	}
	if w, _ := bal.Weight("m1"); w != 1 {
		t.Errorf("stage one touched the weight: %v", w)
	}
	if got := f.Admd().BlockedClasses("m1"); len(got) != 1 || got[0] != "dynamic" {
		t.Errorf("BlockedClasses = %v", got)
	}

	// Still hot next period: stage two engages weights and caps.
	env.temps["m1"][model.NodeCPU] = 68.5
	if err := f.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	if w, _ := bal.Weight("m1"); w >= 1 {
		t.Errorf("stage two did not reduce the weight: %v", w)
	}
	if blocked, _ := bal.ClassBlocked("m1", "dynamic"); !blocked {
		t.Error("stage-two escalation dropped the class block")
	}

	// Cooling below Tl releases everything.
	env.temps["m1"][model.NodeCPU] = 60
	if err := f.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	if blocked, _ := bal.ClassBlocked("m1", "dynamic"); blocked {
		t.Error("class block not released")
	}
	if w, _ := bal.Weight("m1"); w != 1 {
		t.Errorf("weight not restored: %v", w)
	}
	if got := f.Admd().BlockedClasses("m1"); len(got) != 0 {
		t.Errorf("BlockedClasses after cool = %v", got)
	}
}

func TestTwoStageDiskHotBlocksStatic(t *testing.T) {
	env := newFakeEnv("m1", "m2")
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	f, err := New([]string{"m1", "m2"}, env, bal, env, Config{TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	env.temps["m1"][model.NodeDiskPlatters] = 66 // disk Th=65
	f.TickPeriod()
	if blocked, _ := bal.ClassBlocked("m1", "static"); !blocked {
		t.Error("hot disk should block the static (disk-heavy) class")
	}
	if blocked, _ := bal.ClassBlocked("m1", "dynamic"); blocked {
		t.Error("hot disk must not block the dynamic class")
	}
}

func TestTwoStageDisabledByDefault(t *testing.T) {
	env := newFakeEnv("m1", "m2")
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	f, _ := New([]string{"m1", "m2"}, env, bal, env, Config{})
	f.TickPoll()
	env.temps["m1"][model.NodeCPU] = 68
	f.TickPeriod()
	// Without TwoStage the first reaction is the weight cut.
	if w, _ := bal.Weight("m1"); w >= 1 {
		t.Errorf("base policy should cut the weight immediately: %v", w)
	}
	if blocked, _ := bal.ClassBlocked("m1", "dynamic"); blocked {
		t.Error("base policy must not block classes")
	}
}

func TestAssignClassRespectsBlocks(t *testing.T) {
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	bal.SetClassBlocked("m1", "dynamic", true)
	for i := 0; i < 6; i++ {
		name, err := bal.AssignClass("dynamic")
		if err != nil {
			t.Fatal(err)
		}
		if name != "m2" {
			t.Fatalf("dynamic request assigned to blocking server")
		}
	}
	// Static requests still go everywhere; m1 has fewer conns so it
	// gets them.
	name, err := bal.AssignClass("static")
	if err != nil || name != "m1" {
		t.Errorf("static assignment = %s, %v", name, err)
	}
	// Unblock and recover.
	bal.SetClassBlocked("m1", "dynamic", false)
	name, _ = bal.AssignClass("dynamic")
	if name != "m1" {
		t.Errorf("after unblock dynamic went to %s", name)
	}
	// Blocking everything drops the class.
	bal.SetClassBlocked("m1", "dynamic", true)
	bal.SetClassBlocked("m2", "dynamic", true)
	if _, err := bal.AssignClass("dynamic"); err == nil {
		t.Error("fully blocked class: want ErrNoServer")
	}
	if err := bal.SetClassBlocked("ghost", "dynamic", true); err == nil {
		t.Error("unknown server: want error")
	}
	if err := bal.SetClassBlocked("m1", "", true); err == nil {
		t.Error("empty class: want error")
	}
	if _, err := bal.ClassBlocked("ghost", "dynamic"); err == nil {
		t.Error("unknown server: want error")
	}
}

// TestECTwoStageInPlace: Freon-EC manages a hot machine in place when
// every server is needed and none is off to swap in, and there it runs
// the base policy — two-stage included when the config asks for it, so
// the first hot report blocks the component's ShedClass and leaves the
// weight alone.
func TestECTwoStageInPlace(t *testing.T) {
	env := newFakeEnv("m1", "m2", "m3", "m4")
	bal := lvs.New()
	// Load high enough that no server can leave: 0.5 over three servers
	// is above Ul.
	setAllUtil(env, 0.5)
	e := newEC(t, env, bal, ECConfig{Config: Config{TwoStage: true}})
	if err := e.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	env.temps["m1"][model.NodeCPU] = 68
	if err := e.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 4 || e.Phase("m1") != "active" {
		t.Fatalf("m1 %s with %d active, want it managed in place with all 4 active", e.Phase("m1"), e.ActiveCount())
	}
	if blocked, _ := bal.ClassBlocked("m1", "dynamic"); !blocked {
		t.Error("first hot report did not block the dynamic class")
	}
	if w, _ := bal.Weight("m1"); w != 1 {
		t.Errorf("stage one touched the weight: %v", w)
	}
}
