package cxlfork_test

import (
	"fmt"

	"cxlfork"
)

// ExampleSystem_Checkpoint demonstrates the core remote-fork flow:
// checkpoint a warmed function into CXL memory, restore a clone on
// another node, and observe the checkpoint's layout.
func ExampleSystem_Checkpoint() {
	sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
	if err != nil {
		panic(err)
	}

	fn, err := sys.DeployFunction(0, "Float")
	if err != nil {
		panic(err)
	}
	if err := fn.Warmup(16); err != nil {
		panic(err)
	}
	ck, err := sys.Checkpoint(fn, cxlfork.CXLfork, "float-v1")
	if err != nil {
		panic(err)
	}
	fn.Exit() // the checkpoint is decoupled from the parent

	clone, err := sys.Restore(1, ck, cxlfork.RestoreOptions{})
	if err != nil {
		panic(err)
	}
	if _, err := clone.Invoke(); err != nil {
		panic(err)
	}

	info := ck.Describe()
	fmt.Printf("mechanism: %s\n", info.Mechanism)
	fmt.Printf("checkpointed pages: %d (%d file-backed)\n", info.DataPages, info.FilePages)
	fmt.Printf("clone shares CXL state: %v\n", clone.ResidentCXLBytes() > clone.ResidentLocalBytes())
	// Output:
	// mechanism: CXLfork
	// checkpointed pages: 6512 (3584 file-backed)
	// clone shares CXL state: true
}

// ExampleSystem_Restore_tiering shows how tiering policies trade local
// memory for access locality on a restored clone.
func ExampleSystem_Restore_tiering() {
	sys, err := cxlfork.NewSystem(cxlfork.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fn, _ := sys.DeployFunction(0, "Float")
	_ = fn.Warmup(16)
	ck, _ := sys.Checkpoint(fn, cxlfork.CXLfork, "f")

	mow, _ := sys.Restore(1, ck, cxlfork.RestoreOptions{Policy: cxlfork.MigrateOnWrite})
	moa, _ := sys.Restore(1, ck, cxlfork.RestoreOptions{Policy: cxlfork.MigrateOnAccess})
	_, _ = mow.Invoke()
	_, _ = moa.Invoke()

	fmt.Printf("migrate-on-write keeps less local: %v\n",
		mow.ResidentLocalBytes() < moa.ResidentLocalBytes())
	fmt.Printf("migrate-on-access leaves nothing on CXL: %v\n", moa.ResidentCXLBytes() == 0)
	// Output:
	// migrate-on-write keeps less local: true
	// migrate-on-access leaves nothing on CXL: true
}

// ExampleFunctionNames lists the built-in Table-1 workload suite.
func ExampleFunctionNames() {
	for _, name := range cxlfork.FunctionNames()[:3] {
		fmt.Println(name)
	}
	// Output:
	// Float
	// Linpack
	// Json
}
