module setm/bench

go 1.22

require setm v0.0.0

replace setm => ../
