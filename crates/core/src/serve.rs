//! Re-exports of the [`unn_serve`] sharded serving tier.

pub use unn_serve::{
    AdmissionConfig, BreakerConfig, BreakerState, ChaosShard, CircuitBreaker, DispatchConfig,
    Dispatcher, EngineShard, ExactView, FaultKind, FeedbackConfig, InsertPolicy, Outcome, Reply,
    Request, RetryPolicy, ServeConfig, ServeError, ShardBackend, ShardPolicy, ShardSet,
    ShardSetSnapshot, ShedReason,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicPnnConfig, DynamicPnnIndex, PnnIndex, Uncertain};
    use std::sync::Arc;
    use unn_geom::Point;
    use unn_observe::NullClock;

    /// The static index, the dynamic snapshot, the served exact view and
    /// the dispatcher's exact tier price and answer one live set alike.
    #[test]
    fn exact_tier_agrees_across_static_dynamic_and_served() {
        let bits = |pi: &[f64]| pi.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let disks: Vec<Uncertain> = (0..14)
            .map(|i| {
                let c = Point::new((i % 6) as f64 * 2.0, (i / 6) as f64 * 2.0);
                Uncertain::uniform_disk(c, 0.4)
            })
            .collect();
        let certain: Vec<Uncertain> = (0..12)
            .map(|i| Uncertain::certain(Point::new(i as f64, (i % 3) as f64)))
            .collect();
        for points in [disks, certain] {
            let index = PnnIndex::new(points.clone());
            let mut dynamic = DynamicPnnIndex::with_config(DynamicPnnConfig {
                mc_rounds: 64,
                ..DynamicPnnConfig::default()
            })
            .unwrap_or_else(|e| panic!("{e}"));
            let config = ServeConfig {
                mc_rounds: 64,
                ..ServeConfig::default()
            };
            let mut set =
                ShardSet::new(3, ShardPolicy::Hash, config).unwrap_or_else(|e| panic!("{e}"));
            for p in &points {
                dynamic.insert(p.clone());
                set.insert(p.clone());
            }
            let snap = dynamic.snapshot();
            let served = set.snapshot();
            let view = served.exact_view();
            assert_eq!(snap.exact_work(), index.exact_work());
            assert_eq!(view.work(), index.exact_work());
            let mut dispatcher =
                Dispatcher::for_snapshot(&served, DispatchConfig::default(), Arc::new(NullClock))
                    .unwrap_or_else(|e| panic!("{e}"));
            for q in [
                Point::new(1.0, 1.0),
                Point::new(4.3, 0.2),
                Point::new(-2.0, 5.5),
            ] {
                let (want, method) = index.quantify_exact(q);
                let (pi, dyn_method) = snap.quantify_exact(q);
                assert_eq!(dyn_method, method);
                assert_eq!(bits(&pi), bits(&want), "dynamic snapshot at {q:?}");
                assert_eq!(bits(&view.quantify(q)), bits(&want), "exact view at {q:?}");
                let reply = &dispatcher.serve(&[Request::Quantify(q)])[0];
                let Outcome::Exact { pi } = &reply.outcome else {
                    panic!("expected an exact reply, got {:?}", reply.outcome);
                };
                assert_eq!(bits(pi), bits(&want), "dispatcher at {q:?}");
            }
        }
    }
}
