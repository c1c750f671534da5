package scengen

import "testing"

// validBase is a program every structural row below breaks in one place:
// object 2 raises at action 1, object 4 enters action 2 late, and object 3
// sits in action 3, nested under the raise site.
func validBase() *Program {
	return &Program{
		Version:    Version,
		Exceptions: []ExcNode{{Name: "omega"}, {Name: "e1", Parent: "omega"}, {Name: "e2", Parent: "omega"}},
		Families: []Family{{
			Objects: []int{1, 2, 3, 4},
			Actions: []Action{
				{Parent: -1, Members: []int{1, 2, 3, 4}},
				{Parent: 0, Members: []int{2, 3}},
				{Parent: 0, Members: []int{4}},
				{Parent: 1, Members: []int{3}},
			},
			Raises:  []Raise{{Obj: 2, Exc: "e1"}},
			Belated: []Belated{{Obj: 4, Action: 2}},
		}},
	}
}

// TestValidateStructuralRules holds Validate to every structural rule that
// makes the reference-versus-fabric comparison sound: one row per rule, each
// a one-place change to a valid program.
func TestValidateStructuralRules(t *testing.T) {
	if err := validBase().Validate(); err != nil {
		t.Fatalf("base program: %v", err)
	}
	rows := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"root parent is not -1", func(p *Program) { p.Families[0].Actions[0].Parent = 0 }},
		{"parent follows child", func(p *Program) { p.Families[0].Actions[1].Parent = 2 }},
		{"empty members", func(p *Program) {
			p.Families[0].Actions = append(p.Families[0].Actions, Action{Parent: 0, Members: []int{}})
		}},
		{"duplicate member", func(p *Program) {
			p.Families[0].Actions = append(p.Families[0].Actions, Action{Parent: 3, Members: []int{3, 3}})
		}},
		{"member not in parent", func(p *Program) {
			p.Families[0].Actions = append(p.Families[0].Actions, Action{Parent: 2, Members: []int{1}})
		}},
		{"siblings share a member", func(p *Program) { p.Families[0].Actions[2].Members = []int{3, 4} }},
		{"object raises twice", func(p *Program) {
			p.Families[0].Raises = append(p.Families[0].Raises, Raise{Obj: 2, Exc: "e2"})
		}},
		{"unknown exception", func(p *Program) { p.Families[0].Raises[0].Exc = "nope" }},
		{"raiser not a member", func(p *Program) {
			p.Families[0].Raises = append(p.Families[0].Raises, Raise{Obj: 9, Exc: "e2"})
		}},
		{"raise sites ancestor-related", func(p *Program) {
			p.Families[0].Raises = append(p.Families[0].Raises, Raise{Obj: 1, Exc: "e2"})
		}},
		{"belated action out of range", func(p *Program) { p.Families[0].Belated[0].Action = 7 }},
		{"belated action negative", func(p *Program) { p.Families[0].Belated[0].Action = -1 }},
		{"belated entry duplicated", func(p *Program) {
			p.Families[0].Belated = append(p.Families[0].Belated, Belated{Obj: 4, Action: 2})
		}},
		{"belated raiser", func(p *Program) {
			p.Families[0].Raises = append(p.Families[0].Raises, Raise{Obj: 4, Exc: "e2"})
		}},
		{"belated off the object's leaf", func(p *Program) {
			p.Families[0].Belated = append(p.Families[0].Belated, Belated{Obj: 3, Action: 1})
		}},
		{"belated under a raise site", func(p *Program) {
			p.Families[0].Belated = append(p.Families[0].Belated, Belated{Obj: 3, Action: 3})
		}},
		{"family of more than 1000 actions", func(p *Program) {
			// Action IDs are family*1000 + action + 1: family 0's action
			// 1000 would take family 1's root ID.
			fam := Family{Objects: []int{1, 2}, Actions: []Action{{Parent: -1, Members: []int{1, 2}}}}
			for a := 1; a <= 1000; a++ {
				fam.Actions = append(fam.Actions, Action{Parent: a - 1, Members: []int{1}})
			}
			p.Families = []Family{fam, {Objects: []int{1, 2}, Actions: []Action{{Parent: -1, Members: []int{1, 2}}}}}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := validBase()
			row.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("Validate accepted the program")
			}
		})
	}
}
