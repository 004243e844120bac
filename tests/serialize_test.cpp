#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/tensor/serialize.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

/// Encodes `state` and decodes it back, requiring the reader to consume
/// every byte.
StateDict round_trip(const StateDict& state) {
  const std::vector<std::uint8_t> bytes = encode_state_dict(state);
  ByteReader in(bytes, "test");
  StateDict decoded = decode_state_dict(in);
  in.expect_done();
  return decoded;
}

TEST(Serialize, RoundTripsStateDict) {
  StateDict state;
  state.emplace("layer0.weight", testing::random_tensor(Shape{4, 7}, 1));
  state.emplace("layer0.bias", testing::random_tensor(Shape{4}, 2));
  state.emplace("bn.running_mean", testing::random_tensor(Shape{16}, 3));
  const StateDict loaded = round_trip(state);
  ASSERT_EQ(loaded.size(), state.size());
  for (const auto& [name, tensor] : state) {
    const auto it = loaded.find(name);
    ASSERT_NE(it, loaded.end()) << name;
    EXPECT_TRUE(it->second.allclose(tensor, 0.0f, 0.0f)) << name;
  }
}

TEST(Serialize, EmptyDictRoundTrips) { EXPECT_TRUE(round_trip({}).empty()); }

TEST(Serialize, TruncatedFileThrows) {
  // A torn checkpoint file hands the decoder a cut-off payload: every cut
  // must raise a typed CheckpointError, never read past the end.
  StateDict state;
  state.emplace("w", testing::random_tensor(Shape{64}, 4));
  const std::vector<std::uint8_t> bytes = encode_state_dict(state);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    ByteReader in(cut, "test");
    EXPECT_THROW((void)decode_state_dict(in), CheckpointError) << keep;
  }
}

TEST(Serialize, ZeroElementTensorsRoundTrip) {
  // A zero-length dimension is legal (e.g. an empty freeze-mask table):
  // the entry keeps its shape through a round-trip and carries no payload.
  StateDict state;
  state.emplace("empty_vec", Tensor(Shape{0}));
  state.emplace("empty_mat", Tensor(Shape{3, 0, 5}));
  state.emplace("regular", testing::random_tensor(Shape{2, 2}, 8));
  const StateDict loaded = round_trip(state);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.at("empty_vec").shape(), (Shape{0}));
  EXPECT_EQ(loaded.at("empty_vec").numel(), 0);
  EXPECT_EQ(loaded.at("empty_mat").shape(), (Shape{3, 0, 5}));
  EXPECT_EQ(loaded.at("empty_mat").numel(), 0);
  EXPECT_TRUE(loaded.at("regular").allclose(state.at("regular"), 0.0f, 0.0f));
}

TEST(Serialize, EncodeDecodeBytesMatchFileFormat) {
  // encode_state_dict is the MODL/OPTM chunk payload of the on-disk FTCK
  // format: decoding the encoded bytes must reproduce them bit-exactly.
  StateDict state;
  state.emplace("a", testing::random_tensor(Shape{5}, 6));
  state.emplace("b", Tensor(Shape{0, 2}));
  const std::vector<std::uint8_t> bytes = encode_state_dict(state);
  ByteReader in(bytes, "test");
  const StateDict decoded = decode_state_dict(in);
  in.expect_done();
  EXPECT_EQ(encode_state_dict(decoded), bytes);
}

TEST(Serialize, EmptyDictEncodesToCountOnly) {
  const std::vector<std::uint8_t> bytes = encode_state_dict({});
  EXPECT_EQ(bytes.size(), 8u);  // just the u64 entry count
  ByteReader in(bytes, "test");
  EXPECT_TRUE(decode_state_dict(in).empty());
}

TEST(Serialize, PreservesRank0AndHighRank) {
  StateDict state;
  state.emplace("scalar", Tensor(Shape{}, std::vector<float>{3.25f}));
  state.emplace("rank4", testing::random_tensor(Shape{2, 3, 4, 5}, 5));
  const StateDict loaded = round_trip(state);
  EXPECT_EQ(loaded.at("scalar").rank(), 0u);
  EXPECT_FLOAT_EQ(loaded.at("scalar")[0], 3.25f);
  EXPECT_EQ(loaded.at("rank4").shape(), (Shape{2, 3, 4, 5}));
}

}  // namespace
}  // namespace ftpim
