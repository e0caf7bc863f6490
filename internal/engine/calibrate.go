// Cost-model calibration: run representative queries with the EXPLAIN
// ANALYZE machinery, pair each filter's and grouping's estimated ratios
// with the actually observed ones, and fit the planner's selectivity
// constants from the evidence (costmodel.Fit). The fitted set installs on
// the DB, versioned so the plan cache drops plans built with stale
// constants.

package engine

import (
	"fmt"

	"setm/internal/costmodel"
	"setm/internal/exec"
	"setm/internal/plan"
	"setm/internal/sqlparse"
)

// Calibration returns the active estimation constants.
func (db *DB) Calibration() costmodel.Calibration {
	if db.calib != nil {
		return *db.calib
	}
	return costmodel.DefaultCalibration()
}

// SetCalibration installs cal as the planner's estimation constants and
// bumps the calibration version, invalidating cached plans.
func (db *DB) SetCalibration(cal costmodel.Calibration) {
	db.calib = &cal
	db.calibVer++
}

// Observe executes one SELECT and returns the per-operator calibration
// observations (actual input/output rows of every filter and grouping).
func (db *DB) Observe(sql string, params map[string]int64) ([]costmodel.Observation, error) {
	st, err := cachedParse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("engine: Observe requires a SELECT, got %T", st)
	}
	pl, err := db.compiler(plan.IntParams(params)).CompilePlan(sel)
	if err != nil {
		return nil, err
	}
	if _, err := exec.DrainBatches(pl.Root); err != nil {
		return nil, err
	}
	return pl.Observations(), nil
}

// Calibrate executes the given SELECT statements, collects every filter
// and grouping operator's actual cardinalities, fits the planner's
// estimation constants from them, installs the fitted set, and returns
// it. Subsequent plans — and the plan cache — use the new constants.
func (db *DB) Calibrate(queries []string, params map[string]int64) (costmodel.Calibration, error) {
	var obs []costmodel.Observation
	for _, q := range queries {
		o, err := db.Observe(q, params)
		if err != nil {
			return costmodel.Calibration{}, err
		}
		obs = append(obs, o...)
	}
	cal := costmodel.Fit(obs)
	db.SetCalibration(cal)
	return cal, nil
}
