//! `serve-churn` draws 48 shapes against a 32-entry plan cache: its
//! measured miss share must sit in the intended band (about a third,
//! well away from 50% so p50 and p99 fall in different modes).

use std::time::Duration;

use lorastencil_perfbench::gen;
use lorastencil_perfbench::servewl::{
    churn, closed_loop, setup, ServeSet, CHURN_MISS_BAND, CLIENTS,
};

#[test]
fn churn_miss_share_sits_in_its_band() {
    let spec = churn();
    for seed in [3, 4] {
        let jobs = gen::jobs(&spec.shapes, seed, spec.grid_seeds);
        let set = ServeSet::new(spec.shapes.clone(), jobs).expect("churn jobs plan offline");
        let (core, _, warm) = setup(&set, CLIENTS);
        assert_eq!(warm.failed, 0);
        let (tally, _) =
            closed_loop(&core, &set, seed, CLIENTS, Duration::from_millis(1500), false);
        assert_eq!(tally.failed, 0);
        let share = tally.misses as f64 / tally.attempted as f64;
        let (lo, hi) = CHURN_MISS_BAND;
        assert!((lo..=hi).contains(&share), "seed {seed}: miss share {share} outside {lo}..={hi}");
    }
}
