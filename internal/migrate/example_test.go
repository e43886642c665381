package migrate_test

import (
	"fmt"

	"paragon/internal/gen"
	"paragon/internal/migrate"
	"paragon/internal/stream"
)

// Example migrates a refined decomposition's vertices between rank
// stores, carrying application data through the save/restore hooks.
func Example() {
	g := gen.Mesh2D(8, 8)
	old := stream.DG(g, 4, stream.DefaultOptions())
	now := old.Clone()
	now.Move(0, (old.Assign[0]+1)%4) // one vertex changes owner

	stores := migrate.BuildStores(g, old)
	plan, _ := migrate.NewPlan(old, now)
	stats, err := migrate.Execute(stores, plan, migrate.AppContext{
		Save:    func(v int32) []byte { return []byte{42} },
		Restore: func(v int32, data []byte) { _ = data },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("moved vertices:", stats.MovedVertices)
	fmt.Println("stores valid:", migrate.Verify(stores, g, now) == nil)
	// Output:
	// moved vertices: 1
	// stores valid: true
}
