//! Tensor- and pipeline-parallel shards compute the unsharded model:
//! on every grid, the sequential reference's loss and its consolidated
//! gradients match `GptModel::loss` and its gradients.

use matgpt_model::tp::{
    accumulate_staged_grads, consolidate_shards, reference_loss, shard_model, stage_ranges,
    validate_plan, ShardModel, TpPlanError,
};
use matgpt_model::{ArchKind, GptConfig, GptModel};
use matgpt_tensor::{init, ParamStore, Tape, Tensor};

const BATCH: usize = 2;
const SEQ: usize = 8;

/// A store with `store`'s names and layout whose values are its gradients.
fn grads_as_values(store: &ParamStore) -> ParamStore {
    let mut out = ParamStore::new();
    for id in store.ids() {
        out.add(store.name(id), store.grad(id).clone());
    }
    out
}

fn max_abs(t: &Tensor) -> f32 {
    t.data().iter().fold(0.0f32, |m, x| m.max(x.abs()))
}

#[test]
fn shard_grids_compute_the_unsharded_model() {
    let configs = [
        ("neox", ArchKind::NeoX, None),
        ("llama", ArchKind::Llama, None),
        ("llama-gqa", ArchKind::Llama, Some(2)),
    ];
    for (label, arch, kv_heads) in configs {
        let cfg = GptConfig {
            vocab_size: 40,
            hidden: 32,
            layers: 4,
            kv_heads,
            max_seq: 16,
            ..GptConfig::tiny(arch, 40)
        };
        let mut store = ParamStore::new();
        let model = GptModel::new(cfg.clone(), &mut store, &mut init::rng(11));
        let inputs: Vec<u32> = (0..BATCH * SEQ).map(|i| (i * 7 % 40) as u32).collect();
        let targets: Vec<u32> = (0..BATCH * SEQ).map(|i| (i * 7 % 40 + 1) as u32).collect();

        let mut tape = Tape::new();
        let loss = model.loss(&mut tape, &store, &inputs, &targets, BATCH, SEQ);
        let want_loss = tape.value(loss).item();
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);

        for (tp, pp) in [(2, 1), (1, 2), (2, 2), (4, 1)] {
            if let Err(err) = validate_plan(&cfg, tp, pp) {
                // 2 kv heads cannot split four ways
                assert_eq!(err, TpPlanError::KvHeads { kv_heads: 2, tp }, "{label}");
                continue;
            }
            let ranges = stage_ranges(cfg.layers, pp);
            let mut grid: Vec<Vec<(ShardModel, ParamStore)>> = ranges
                .iter()
                .enumerate()
                .map(|(s, range)| {
                    (0..tp)
                        .map(|r| {
                            shard_model(&model, &store, tp, r, range.clone(), s == 0, s + 1 == pp)
                        })
                        .collect()
                })
                .collect();

            let mut tape = Tape::new();
            let view: Vec<Vec<(&ShardModel, &ParamStore)>> = grid
                .iter()
                .map(|stage| stage.iter().map(|(m, s)| (m, s)).collect())
                .collect();
            let (loss, staged) = reference_loss(&view, &mut tape, &inputs, &targets, BATCH, SEQ);
            let got_loss = tape.value(loss).item();
            let rel = (got_loss - want_loss).abs() / want_loss.abs();
            assert!(
                rel <= 1e-5,
                "{label} tp={tp} pp={pp}: loss {got_loss} vs {want_loss}"
            );
            tape.backward(loss);
            for (s, stage) in grid.iter_mut().enumerate() {
                for (r, (_, shard_store)) in stage.iter_mut().enumerate() {
                    accumulate_staged_grads(&tape, &staged[s][r], shard_store);
                }
            }

            let grad_grid: Vec<Vec<ParamStore>> = grid
                .iter()
                .map(|stage| stage.iter().map(|(_, s)| grads_as_values(s)).collect())
                .collect();
            let grad_view: Vec<Vec<(&ShardModel, &ParamStore)>> = grid
                .iter()
                .zip(&grad_grid)
                .map(|(stage, grads)| stage.iter().map(|(m, _)| m).zip(grads).collect())
                .collect();
            let mut consolidated = ParamStore::new();
            for id in store.ids() {
                consolidated.add(store.name(id), Tensor::zeros(store.value(id).shape()));
            }
            consolidate_shards(&model, &mut consolidated, &grad_view);
            for (id, cid) in store.ids().zip(consolidated.ids()) {
                let (want, got) = (store.grad(id), consolidated.value(cid));
                let err = want
                    .data()
                    .iter()
                    .zip(got.data())
                    .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
                assert!(
                    err <= 1e-5 * max_abs(want).max(f32::MIN_POSITIVE),
                    "{label} tp={tp} pp={pp}: grad of {} off by {err} (scale {})",
                    store.name(id),
                    max_abs(want)
                );
            }
        }
    }
}
