// Customer classes: the extension the paper's conclusion proposes —
// "relating association rules to customer classes". Two synthetic
// customer segments share a store but buy differently; MineClasses groups
// the transactions by segment, mines each on the shared executor at its
// own support threshold, and recovers different rules for each.
//
// Run with:
//
//	go run ./examples/customerclasses
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"setm"
)

// Item vocabulary for the demo.
const (
	bread  = 1
	butter = 2
	milk   = 3
	cereal = 4
	cards  = 5 // baseball cards
	beer   = 6
	chips  = 7
)

var names = map[setm.Item]string{
	bread: "bread", butter: "butter", milk: "milk",
	cereal: "cereal", cards: "cards", beer: "beer", chips: "chips",
}

func nameOf(it setm.Item) string { return names[it] }

func main() {
	// Class 1: families — "customers with kids are more likely to buy a
	// particular brand of cereal if it includes baseball cards" (the
	// paper's own motivating rule). Class 2: students — beer and chips.
	rng := rand.New(rand.NewSource(42))
	d := &setm.ClassifiedDataset{}
	id := int64(0)
	add := func(class int64, items ...setm.Item) {
		id++
		d.Transactions = append(d.Transactions,
			setm.ClassifiedTransaction{ID: id, Class: class, Items: items})
	}
	for i := 0; i < 300; i++ {
		switch {
		case rng.Float64() < 0.6:
			add(1, bread, butter, milk)
		case rng.Float64() < 0.7:
			add(1, cereal, cards, milk)
		default:
			add(1, bread, milk)
		}
	}
	for i := 0; i < 200; i++ {
		if rng.Float64() < 0.7 {
			add(2, beer, chips)
		} else {
			add(2, beer, bread)
		}
	}

	res, err := setm.MineClasses(d, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d transactions across %d classes, one mine per class (%v)\n\n",
		d.NumTransactions(), len(d.Classes()), res.Elapsed)

	per := res.ByClass()
	classes := make([]int64, 0, len(per))
	for c := range per {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	label := map[int64]string{1: "families", 2: "students"}
	for _, class := range classes {
		rules, err := setm.Rules(per[class], 0.80)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("class %d (%s): %d rules at 80%% confidence\n",
			class, label[class], len(rules))
		fmt.Print(setm.FormatRules(rules, nameOf))
		fmt.Println()
	}
}
