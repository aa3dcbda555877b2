// Persistence round-trips: every artifact must reload byte-exactly, and
// malformed containers must be rejected loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/experiment.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "nn/arch.hpp"
#include "nn/trainer.hpp"

namespace bprom {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

core::ExperimentScale micro_scale() {
  core::ExperimentScale s;
  s.suspicious_train = 120;
  s.suspicious_epochs = 2;
  s.population_per_side = 1;
  s.shadows_per_side = 2;
  s.shadow_epochs = 2;
  s.prompt_epochs = 1;
  s.blackbox_evals = 40;
  s.query_samples = 4;
  s.forest_trees = 20;
  return s;
}

TEST(IoBinary, TensorRoundTripIsByteExact) {
  util::Rng rng(3);
  tensor::Tensor t = tensor::Tensor::randn({2, 3, 4, 5}, rng);
  io::Writer writer;
  io::save_tensor(writer, t);

  io::Reader reader(writer.finish());
  tensor::Tensor back = io::load_tensor(reader);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(back.vec(), t.vec());  // exact float equality: same bits
  EXPECT_EQ(reader.remaining(), 0U);
}

TEST(IoBinary, LabeledDataRoundTrip) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 5, 24, 8);
  io::Writer writer;
  io::save_labeled_data(writer, dataset.train);
  io::Reader reader(writer.finish());
  nn::LabeledData back = io::load_labeled_data(reader);
  EXPECT_EQ(back.images.vec(), dataset.train.images.vec());
  EXPECT_EQ(back.labels, dataset.train.labels);
}

TEST(IoBinary, PromptRoundTrip) {
  vp::VisualPrompt prompt(nn::ImageShape{3, 16, 16},
                          vp::PromptMode::kAdditiveCoarse);
  std::vector<float> theta(prompt.num_params());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    theta[i] = 0.25F * static_cast<float>(i) - 1.0F;
  }
  prompt.set_theta(theta);

  io::Writer writer;
  io::save_prompt(writer, prompt);
  io::Reader reader(writer.finish());
  vp::VisualPrompt back = io::load_prompt(reader);
  EXPECT_EQ(back.mode(), prompt.mode());
  EXPECT_EQ(back.canvas(), prompt.canvas());
  EXPECT_EQ(back.theta(), prompt.theta());
}

TEST(IoBinary, RejectsCorruptTruncatedAndWrongVersionFiles) {
  util::Rng rng(4);
  tensor::Tensor t = tensor::Tensor::randn({4, 4}, rng);
  io::Writer writer;
  io::save_tensor(writer, t);
  const std::vector<std::uint8_t> good = writer.finish();

  // Sanity: the untouched container parses.
  EXPECT_NO_THROW(io::Reader{good});

  // Every rejection carries the ErrorKind the api façade maps onto its
  // Status codes, so the kinds are part of the contract.
  const auto kind_of = [](const std::vector<std::uint8_t>& bytes) {
    try {
      io::Reader reader{bytes};
    } catch (const io::IoError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "container unexpectedly parsed";
    return io::ErrorKind::kIo;
  };

  // Bad magic.
  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(kind_of(bad_magic), io::ErrorKind::kCorrupt);

  // Unsupported (newer) version: mismatch, not corruption.
  auto bad_version = good;
  bad_version[4] = 99;
  EXPECT_EQ(kind_of(bad_version), io::ErrorKind::kVersionMismatch);

  // Truncated payload.
  auto truncated = good;
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(kind_of(truncated), io::ErrorKind::kCorrupt);

  // Single flipped payload byte -> CRC failure.
  auto corrupt = good;
  corrupt[24] ^= 0x40U;
  EXPECT_EQ(kind_of(corrupt), io::ErrorKind::kCorrupt);

  // Wrong chunk kind: a Tensor container is not a forest.
  io::Reader reader{good};
  EXPECT_THROW(meta::RandomForest::load(reader), io::IoError);

  // A missing file is kNotFound (the façade's Status::kNotFound), not kIo.
  try {
    io::Reader::from_file("/nonexistent/bprom/container.bprom");
    ADD_FAILURE() << "missing file unexpectedly opened";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kNotFound);
  }
}

TEST(IoBinary, RejectsStructurallyCorruptTrees) {
  // Hand-craft a CRC-valid FRST container whose single tree splits on a
  // feature far beyond the recorded feature dimension: the CRC passes but
  // load() must still refuse (out-of-bounds split would read past the
  // feature vector at predict time).
  const auto forged = [](int feature, int left, int right) {
    io::Writer writer;
    writer.write_tag("FRST");
    writer.write_u64(1);  // config.trees
    writer.write_u64(8);  // config.tree.max_depth
    writer.write_u64(1);  // config.tree.min_samples_leaf
    writer.write_u64(0);  // config.tree.feature_subsample
    writer.write_u64(19); // config.seed
    writer.write_u64(6);  // feature_dim
    writer.write_u64(1);  // tree count
    writer.write_tag("TREE");
    writer.write_u64(3);  // node count
    writer.write_i32(feature);
    writer.write_f32(0.0F);
    writer.write_f64(0.5);
    writer.write_i32(left);
    writer.write_i32(right);
    for (int leaf = 0; leaf < 2; ++leaf) {
      writer.write_i32(-1);
      writer.write_f32(0.0F);
      writer.write_f64(0.5);
      writer.write_i32(-1);
      writer.write_i32(-1);
    }
    return writer.finish();
  };

  {  // Well-formed control: parses.
    io::Reader reader(forged(2, 1, 2));
    EXPECT_NO_THROW(meta::RandomForest::load(reader));
  }
  {  // Split feature beyond feature_dim.
    io::Reader reader(forged(500, 1, 2));
    EXPECT_THROW(meta::RandomForest::load(reader), io::IoError);
  }
  {  // Self-referential child: would loop forever at predict time.
    io::Reader reader(forged(2, 0, 2));
    EXPECT_THROW(meta::RandomForest::load(reader), io::IoError);
  }
}

TEST(IoBinary, ModelParameterBlobIncludesBatchNormRunningStats) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 6, 96, 32);
  util::Rng rng_a(7);
  auto trained = nn::make_model(nn::ArchKind::kResNet18Mini,
                                dataset.profile.shape,
                                dataset.profile.classes, rng_a);
  nn::TrainConfig tc;
  tc.epochs = 2;
  nn::train_classifier(*trained, dataset.train, tc);

  // A differently initialized model becomes logit-identical after loading
  // the blob — only possible if BatchNorm running stats travel with it.
  util::Rng rng_b(1234);
  auto other = nn::make_model(nn::ArchKind::kResNet18Mini,
                              dataset.profile.shape, dataset.profile.classes,
                              rng_b);
  other->load_parameters(trained->save_parameters());
  const auto expected = trained->logits(dataset.test.images, false);
  const auto actual = other->logits(dataset.test.images, false);
  EXPECT_EQ(expected.vec(), actual.vec());
}

TEST(IoBinary, ModelFileRoundTripPreservesEvalLogits) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 8, 96, 32);
  util::Rng rng(9);
  auto model = nn::make_model(nn::ArchKind::kMobileNetV2Mini,
                              dataset.profile.shape, dataset.profile.classes,
                              rng);
  nn::TrainConfig tc;
  tc.epochs = 2;
  nn::train_classifier(*model, dataset.train, tc);

  const std::string path = temp_path("bprom_test_model.bprom");
  io::save_model_file(path, *model);
  auto loaded = io::load_model_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded->arch(), nn::ArchKind::kMobileNetV2Mini);
  EXPECT_EQ(loaded->num_classes(), model->num_classes());
  const auto expected = model->logits(dataset.test.images, false);
  const auto actual = loaded->logits(dataset.test.images, false);
  EXPECT_EQ(expected.vec(), actual.vec());
}

TEST(IoBinary, RejectsModelInputTooSmallForItsConvs) {
  // SwinMini's two 2x2/stride-2/pad-0 convs need a 4x4 input; at 3x3 the
  // second one would see a 1x1 plane.  Loading must refuse the file with a
  // typed error instead of building a model that crashes on first query.
  util::Rng rng(3);
  auto tiny = nn::make_model(nn::ArchKind::kSwinMini, {3, 3, 3}, 10, rng);
  const std::string path = temp_path("bprom_test_tiny_swin.bprom");
  io::save_model_file(path, *tiny);
  EXPECT_THROW(io::load_model_file(path), io::IoError);
  std::remove(path.c_str());

  // 4x4 is SwinMini's smallest input, and every other family accepts it.
  for (const auto arch :
       {nn::ArchKind::kResNet18Mini, nn::ArchKind::kMobileNetV2Mini,
        nn::ArchKind::kMobileViTMini, nn::ArchKind::kSwinMini,
        nn::ArchKind::kMlp}) {
    auto smallest = nn::make_model(arch, {3, 4, 4}, 10, rng);
    io::save_model_file(path, *smallest);
    auto loaded = io::load_model_file(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded->predict_proba(nn::Tensor({2, 3, 4, 4})).shape(),
              (std::vector<std::size_t>{2, 10}))
        << nn::arch_name(arch);
  }
}

TEST(IoBinary, RandomForestRoundTripPreservesScores) {
  util::Rng rng(11);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> row(6);
    for (auto& v : row) v = static_cast<float>(rng.normal());
    const int label = i % 2;
    row[0] += static_cast<float>(label) * 2.0F;  // separable signal
    x.push_back(std::move(row));
    y.push_back(label);
  }
  meta::ForestConfig cfg;
  cfg.trees = 25;
  meta::RandomForest forest(cfg);
  forest.fit(x, y);

  io::Writer writer;
  forest.save(writer);
  io::Reader reader(writer.finish());
  meta::RandomForest back = meta::RandomForest::load(reader);
  EXPECT_EQ(back.tree_count(), forest.tree_count());
  EXPECT_EQ(back.config().trees, cfg.trees);
  for (const auto& row : x) {
    EXPECT_EQ(back.predict_proba(row), forest.predict_proba(row));
  }
}

TEST(IoBinary, DetectorFitSaveLoadInspectParity) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 21, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 22, 300, 160);
  const auto scale = micro_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  const std::string path = temp_path("bprom_test_detector.bprom");
  io::save_detector_file(path, detector);
  auto loaded = io::load_detector_file(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.source_classes(), detector.source_classes());
  EXPECT_EQ(loaded.config().seed, detector.config().seed);
  EXPECT_EQ(loaded.diagnostics().meta_labels, detector.diagnostics().meta_labels);
  EXPECT_EQ(loaded.diagnostics().meta_features,
            detector.diagnostics().meta_features);

  // The acceptance bar: a model inspected by the reloaded detector gets
  // the identical verdict, down to the last bit of the score.
  auto population = core::build_population(
      src, attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets),
      nn::ArchKind::kResNet18Mini, 1, 40, scale);
  for (const auto& suspicious : population) {
    nn::BlackBoxAdapter box_a(*suspicious.model);
    nn::BlackBoxAdapter box_b(*suspicious.model);
    const auto original = detector.inspect(box_a);
    const auto reloaded = loaded.inspect(box_b);
    EXPECT_EQ(original.score, reloaded.score);
    EXPECT_EQ(original.backdoored, reloaded.backdoored);
    EXPECT_EQ(original.prompted_accuracy, reloaded.prompted_accuracy);
    EXPECT_EQ(original.queries, reloaded.queries);
  }
}

TEST(IoBinary, UnfittedDetectorRefusesToSave) {
  core::BpromDetector detector;
  io::Writer writer;
  try {
    detector.save(writer);
    FAIL() << "unfitted detector unexpectedly saved";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kPrecondition);
  }
}

}  // namespace
}  // namespace bprom
